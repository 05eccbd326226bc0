//! The analysis driver: propagate facts sparsely, then decide feasibility.
//!
//! This is the outer loop of Algorithm 5: sparse propagation collects Π
//! (with **no** conditions), and a pluggable [`FeasibilityEngine`] answers
//! `ir_based_smt_solve(Π)`. Engines implement the fused designs of this
//! crate or the conventional baselines of `fusion-baselines`; the driver,
//! reports and accounting are shared so comparisons are apples-to-apples.
//!
//! There is one driver, [`analyze`]. A [`Plan`] says, per `(checker,
//! source)` work item, whether it runs, replays a recorded outcome, or is
//! masked; [`Engines`] says how many engines decide the items that run.

use crate::absint::ProgramFacts;
use crate::cache::{path_set_key, CacheStats, Key128, VerdictCache};
use crate::checkers::{CheckKind, CheckerId, CheckerSet};
use crate::compact::CompactPdg;
use crate::incremental::SessionProvenance;
use crate::memory::{run_accounting, MemoryAccountant, BYTES_PER_DEF};
use crate::propagate::{discover_items, multi_source_vertices, Candidate, PropagateOptions};
use crate::slice_cache::{SliceCache, SliceCacheStats};
use fusion_ir::ssa::Program;
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::DependencePath;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The verdict on one path set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// Some execution takes the paths: a real flow.
    Feasible,
    /// No execution can take the paths.
    Infeasible,
    /// Budget exhausted before a verdict.
    Unknown,
}

/// Everything a feasibility query reports back.
#[derive(Debug, Clone, Copy)]
pub struct CheckOutcome {
    /// The verdict.
    pub feasibility: Feasibility,
    /// Wall-clock time of the query.
    pub duration: Duration,
    /// DAG node count of the condition the engine built (0 if none).
    pub condition_nodes: u64,
    /// `(context, function)` clones materialized.
    pub instances: usize,
    /// Whether preprocessing alone decided the query.
    pub preprocess_decided: bool,
}

/// A per-query record kept for the Fig. 11 scatter plot.
#[derive(Debug, Clone, Copy)]
pub struct SolveRecord {
    /// The verdict.
    pub feasibility: Feasibility,
    /// Query duration.
    pub duration: Duration,
    /// Whether preprocessing decided it.
    pub preprocess_decided: bool,
    /// Condition size (DAG nodes).
    pub condition_nodes: u64,
}

impl SolveRecord {
    /// Extracts the record from an outcome.
    pub fn from_outcome(o: &CheckOutcome) -> SolveRecord {
        SolveRecord {
            feasibility: o.feasibility,
            duration: o.duration,
            preprocess_decided: o.preprocess_decided,
            condition_nodes: o.condition_nodes,
        }
    }
}

/// A path-feasibility decision procedure — the pluggable half of the fused
/// design. Implementations must not require the caller to compute any
/// condition: they receive the dependence paths and the graph only.
pub trait FeasibilityEngine {
    /// A short identifier for tables.
    fn name(&self) -> &'static str;

    /// Decides whether the conjunction of the given paths' conditions is
    /// satisfiable (`⋀_{π ∈ Π} φ_π` of Algorithm 2).
    fn check_paths(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> CheckOutcome;

    /// Announces a *slice-group* boundary: the driver is about to issue a
    /// batch of related queries (same sink function, key `group`). Engines
    /// that retain per-epoch state (pools, sessions) may use this point to
    /// bound it; verdicts must not depend on where boundaries fall. The
    /// default does nothing.
    fn begin_group(&mut self, _group: u64) {}

    /// Announces that the next queries are the **alternative paths of one
    /// candidate** with canonical content key `key` and full path set
    /// `paths`. Engines may use this to compute the backward closure
    /// *once* for the union of the paths and reuse it for every
    /// alternative (the closure of a superset contains every definitional
    /// equation a subset needs, and extra definitional equations over
    /// acyclic SSA never change satisfiability — constraints are only
    /// asserted for the queried path). Valid until the next
    /// `begin_candidate` or `begin_group`. The default does nothing,
    /// which is what keeps the conventional baselines
    /// (`UnoptimizedGraphSolver`, Pinpoint, AR) faithful to the paper's
    /// per-query slicing: they bypass both the per-candidate reuse and
    /// the [`SliceCache`].
    fn begin_candidate(
        &mut self,
        _program: &Program,
        _pdg: &Pdg,
        _key: Key128,
        _paths: &[DependencePath],
    ) {
    }

    /// Hands the engine a shared slice-closure memo. Engines that slice
    /// per query may consult it; the default ignores it (baselines
    /// bypass the cache so their numbers stay faithful to the
    /// conventional design).
    fn attach_slice_cache(&mut self, _cache: Arc<SliceCache>) {}

    /// Hands the engine the program's abstract-interpretation facts
    /// ([`crate::absint::ProgramFacts`]), memoized once per function.
    /// Engines may use them to *seed* formula preprocessing (known-bits
    /// facts fire on first contact instead of being rediscovered per
    /// instance) — a refute-only optimization that never changes which
    /// candidates are reported. The default ignores them (baselines stay
    /// faithful to the conventional design).
    fn attach_absint(&mut self, _facts: Arc<crate::absint::ProgramFacts>) {}

    /// Cumulative per-stage wall/counter totals over the engine's
    /// lifetime (monotonic). The default reports zeros for engines that
    /// do not instrument their stages.
    fn stage_totals(&self) -> EngineStages {
        EngineStages::default()
    }

    /// The engine's memory accountant.
    fn memory(&self) -> &MemoryAccountant;

    /// Per-query records collected so far.
    fn records(&self) -> &[SolveRecord];
}

/// Cumulative stage totals an instrumented engine reports via
/// [`FeasibilityEngine::stage_totals`]: how query wall-time splits into
/// slicing, translation (term/clause building), and solving, plus how
/// often a slice closure was computed from scratch versus reused (from
/// the per-candidate union or the shared [`SliceCache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStages {
    /// Wall-time spent computing slice closures and constraints.
    pub slice_wall: Duration,
    /// Wall-time spent building terms/instances from the slice.
    pub translate_wall: Duration,
    /// Wall-time spent deciding satisfiability.
    pub solve_wall: Duration,
    /// Closures computed from scratch.
    pub slices_computed: u64,
    /// Closures served by per-candidate reuse or the shared memo.
    pub slices_reused: u64,
    /// Incremental solver sessions opened (0 for engines that solve
    /// cold). The multi-client bench uses this to show that queries from
    /// different checkers landing on the same sink share one session.
    pub sessions_opened: u64,
    /// Assembled queries the engine refuted by *seeded* known-bits
    /// preprocessing (abstract program facts attached via
    /// [`FeasibilityEngine::attach_absint`]) before opening a session or
    /// bit-blasting anything.
    pub absint_refutes: u64,
    /// E-classes built by equality-saturation simplification of local
    /// conditions, summed across passes.
    pub egraph_classes: u64,
    /// Rewrites (rule-driven e-class unions) applied by the e-graph.
    pub egraph_rewrites: u64,
    /// E-graph passes that reached saturation (a change-free iteration)
    /// within budget.
    pub egraph_saturated: u64,
    /// E-graph passes abandoned by the e-node/rebuild caps (the input
    /// term was used unchanged).
    pub egraph_cap_hits: u64,
    /// Term-DAG nodes removed by cost-based extraction (input minus
    /// extracted size, summed; the extracted-term delta).
    pub egraph_nodes_saved: u64,
}

impl EngineStages {
    /// Sums another engine's totals into this one.
    pub fn add(&mut self, other: &EngineStages) {
        self.slice_wall += other.slice_wall;
        self.translate_wall += other.translate_wall;
        self.solve_wall += other.solve_wall;
        self.slices_computed += other.slices_computed;
        self.slices_reused += other.slices_reused;
        self.sessions_opened += other.sessions_opened;
        self.absint_refutes += other.absint_refutes;
        self.egraph_classes += other.egraph_classes;
        self.egraph_rewrites += other.egraph_rewrites;
        self.egraph_saturated += other.egraph_saturated;
        self.egraph_cap_hits += other.egraph_cap_hits;
        self.egraph_nodes_saved += other.egraph_nodes_saved;
    }

    /// Deltas relative to an `earlier` snapshot of the same engine.
    pub fn since(&self, earlier: &EngineStages) -> EngineStages {
        EngineStages {
            slice_wall: self.slice_wall.saturating_sub(earlier.slice_wall),
            translate_wall: self.translate_wall.saturating_sub(earlier.translate_wall),
            solve_wall: self.solve_wall.saturating_sub(earlier.solve_wall),
            slices_computed: self.slices_computed - earlier.slices_computed,
            slices_reused: self.slices_reused - earlier.slices_reused,
            sessions_opened: self.sessions_opened - earlier.sessions_opened,
            absint_refutes: self.absint_refutes - earlier.absint_refutes,
            egraph_classes: self.egraph_classes - earlier.egraph_classes,
            egraph_rewrites: self.egraph_rewrites - earlier.egraph_rewrites,
            egraph_saturated: self.egraph_saturated - earlier.egraph_saturated,
            egraph_cap_hits: self.egraph_cap_hits - earlier.egraph_cap_hits,
            egraph_nodes_saved: self.egraph_nodes_saved - earlier.egraph_nodes_saved,
        }
    }

    /// Sums one e-graph pass's counters into the engine totals.
    pub fn absorb_egraph(&mut self, eg: &fusion_smt::egraph::EGraphStats) {
        self.egraph_classes += eg.classes;
        self.egraph_rewrites += eg.rewrites;
        self.egraph_saturated += eg.saturated;
        self.egraph_cap_hits += eg.cap_hits;
        self.egraph_nodes_saved += eg.nodes_saved();
    }
}

/// Per-stage wall/counter breakdown of one analysis run
/// (discover → slice → translate → solve), surfaced by the CLI's
/// `--stats`/`--json`. Engine stage walls are summed across workers in
/// parallel runs (CPU-time-like); `discover_wall` is the wall-clock
/// span of the discovery stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStats {
    /// Wall-clock span of the discovery stage (sharded or not).
    pub discover_wall: Duration,
    /// Total DFS steps taken by discovery.
    pub discovery_steps: u64,
    /// Discovery shard (producer) count.
    pub discovery_shards: usize,
    /// Engine time computing slice closures/constraints (summed over
    /// workers).
    pub slice_wall: Duration,
    /// Engine time building terms/instances (summed over workers).
    pub translate_wall: Duration,
    /// Engine time deciding satisfiability (summed over workers).
    pub solve_wall: Duration,
    /// Slice closures computed from scratch.
    pub slices_computed: u64,
    /// Slice closures reused (per-candidate union or shared memo).
    pub slices_reused: u64,
    /// Incremental solver sessions opened across all workers.
    pub sessions_opened: u64,
    /// Candidates whose *every* path was refuted by abstract-interpretation
    /// triage: suppressed with zero cache, slice, or solver work.
    pub triaged_candidates: u64,
    /// Individual dependence paths refuted by abstract-interpretation
    /// triage before any cache lookup or engine query.
    pub triaged_paths: u64,
    /// Sink groups that issued no engine query because triage refuted
    /// paths in them — each is an incremental session the run never had to
    /// open.
    pub sessions_skipped: u64,
    /// Union slice closures never computed because the whole candidate was
    /// triaged away (one per fully-triaged candidate).
    pub slices_skipped: u64,
    /// Assembled queries the engines refuted by seeded known-bits
    /// preprocessing (solver-side absint seeding, distinct from the
    /// driver-side path triage above).
    pub absint_refutes: u64,
    /// Vertices removed by the compaction pass's frontier reachability
    /// pruning, summed per checker (zero when compaction is off).
    pub vertices_pruned: u64,
    /// Checker-taken PDG edges with a pruned endpoint, summed per checker.
    pub edges_pruned: u64,
    /// Single-entry/single-exit summary corridors collapsed into
    /// composite chains, summed per checker.
    pub chains_collapsed: u64,
    /// Solver queries answered by the compaction pass's isomorphic-
    /// fragment verdict memo instead of the engine (after an exact-key
    /// cache miss).
    pub iso_hits: u64,
    /// E-classes built by equality-saturation simplification of local
    /// conditions (zero when the e-graph leg is disabled).
    pub egraph_classes: u64,
    /// Rewrites (rule-driven e-class unions) applied by the e-graph.
    pub egraph_rewrites: u64,
    /// E-graph passes that saturated (reached a change-free iteration)
    /// within budget.
    pub egraph_saturated: u64,
    /// E-graph passes abandoned by the e-node/rebuild caps.
    pub egraph_cap_hits: u64,
    /// Term-DAG nodes removed by cost-based extraction (the
    /// extracted-term delta).
    pub egraph_nodes_saved: u64,
    /// Functions whose memoized absint facts a warm session run evicted
    /// (zero outside incremental re-analysis).
    pub facts_invalidated: u64,
    /// Slice closures a warm session run evicted because their function
    /// span intersected the edit's affected set.
    pub slices_invalidated: u64,
    /// Cached path verdicts a warm session run evicted via recorded
    /// `path_set_key → functions` provenance.
    pub verdicts_invalidated: u64,
    /// Candidates actually re-discovered and re-solved by a warm session
    /// run (retained work items replay without touching the engine).
    pub candidates_reanalyzed: u64,
    /// Call-graph shards a partitioned scan ran (zero for unsharded).
    pub shards: u64,
    /// Function summaries (absint facts + return summary) exported by
    /// shards for their owned functions.
    pub summaries_exported: u64,
    /// Function summaries imported by shards for closure functions they
    /// analyze but don't own — demand-driven, so across any one shard
    /// this stays below the total function count.
    pub summaries_imported: u64,
    /// Snapshot-container bytes written by a partitioned scan or a serve
    /// `save`.
    pub snapshot_bytes_written: u64,
    /// Snapshot-container bytes read (lazily, per section) by shard
    /// workers or a serve `load`.
    pub snapshot_bytes_read: u64,
}

impl StageStats {
    fn add_engine(&mut self, e: &EngineStages) {
        self.slice_wall += e.slice_wall;
        self.translate_wall += e.translate_wall;
        self.solve_wall += e.solve_wall;
        self.slices_computed += e.slices_computed;
        self.slices_reused += e.slices_reused;
        self.sessions_opened += e.sessions_opened;
        self.absint_refutes += e.absint_refutes;
        self.egraph_classes += e.egraph_classes;
        self.egraph_rewrites += e.egraph_rewrites;
        self.egraph_saturated += e.egraph_saturated;
        self.egraph_cap_hits += e.egraph_cap_hits;
        self.egraph_nodes_saved += e.egraph_nodes_saved;
    }
}

/// One reported bug.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// The fact's origin.
    pub source: Vertex,
    /// The sink statement.
    pub sink: Vertex,
    /// The verdict that triggered the report ([`Feasibility::Feasible`] or,
    /// conservatively, [`Feasibility::Unknown`]).
    pub verdict: Feasibility,
    /// The witnessing (or undecided) path.
    pub path: DependencePath,
}

/// Aggregate results of one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisRun {
    /// Engine name: the engine's own name for [`Engines::One`], suffixed
    /// with the thread count for [`Engines::PerThread`] (e.g.
    /// `"fusion×4"`).
    pub engine: String,
    /// Bug reports (feasible or undecided candidates).
    pub reports: Vec<BugReport>,
    /// Candidates whose every path was proven infeasible.
    pub suppressed: usize,
    /// Total candidates discovered by propagation.
    pub candidates: usize,
    /// Feasibility queries actually issued to an engine (cache hits are
    /// counted in [`AnalysisRun::cache`], not here).
    pub queries: usize,
    /// Wall-clock duration: propagation phase.
    pub propagate_time: Duration,
    /// Wall-clock duration: solving phase.
    pub solve_time: Duration,
    /// Peak tracked memory, bytes (all categories).
    pub peak_memory: u64,
    /// Verdict-cache traffic attributable to this run (all zeros when the
    /// run was uncached).
    pub cache: CacheStats,
    /// Slice-closure memo traffic attributable to this run (all zeros
    /// when no [`SliceCache`] was configured).
    pub slice: SliceCacheStats,
    /// Per-stage wall/counter breakdown (discover/slice/translate/solve).
    pub stages: StageStats,
}

impl AnalysisRun {
    /// Total wall-clock time: discovery then solving.
    pub fn total_time(&self) -> Duration {
        self.propagate_time + self.solve_time
    }
}

/// One checker's share of a fused multi-client run: its reports (in the
/// exact order a single-checker run would produce them) and its solve-side
/// tallies. Stage *walls* other than `solve_wall` are whole-run quantities
/// and live on [`MultiAnalysisRun::stages`]; everything here is
/// attributable per candidate (candidates carry their [`CheckerId`]).
#[derive(Debug, Clone)]
pub struct CheckerBreakdown {
    /// The client's bug class.
    pub kind: CheckKind,
    /// Bug reports for this checker, in canonical candidate order.
    pub reports: Vec<BugReport>,
    /// This checker's candidates whose every path was proven infeasible.
    pub suppressed: usize,
    /// Candidates discovered for this checker.
    pub candidates: usize,
    /// Feasibility queries issued to an engine for this checker's
    /// candidates (verdict-cache hits excluded).
    pub queries: usize,
    /// Verdict-cache hits while deciding this checker's candidates.
    pub cache_hits: u64,
    /// Verdict-cache misses while deciding this checker's candidates.
    pub cache_misses: u64,
    /// DFS steps the fused discovery spent on this checker's sources.
    pub discovery_steps: u64,
    /// Engine wall-time spent answering this checker's queries (summed
    /// over workers).
    pub solve_wall: Duration,
}

/// Aggregate results of one **fused multi-client run**: every checker in
/// the [`CheckerSet`] analyzed in a single pass over the shared PDG — one
/// discovery traversal, one set of sink groups (keyed on the sink function
/// only, so queries from different checkers share solver sessions and
/// slice closures), and **one true whole-scan memory peak** instead of a
/// max over per-checker passes.
#[derive(Debug, Clone)]
pub struct MultiAnalysisRun {
    /// Engine name (same convention as [`AnalysisRun::engine`]).
    pub engine: String,
    /// Per-checker breakdowns, in [`CheckerSet`] order.
    pub checkers: Vec<CheckerBreakdown>,
    /// Total candidates across all checkers.
    pub candidates: usize,
    /// Total engine queries across all checkers.
    pub queries: usize,
    /// Wall-clock duration: propagation phase (all checkers fused).
    pub propagate_time: Duration,
    /// Wall-clock duration: solving phase (all checkers fused).
    pub solve_time: Duration,
    /// Peak tracked memory of the whole fused scan, bytes.
    pub peak_memory: u64,
    /// Verdict-cache traffic attributable to this run.
    pub cache: CacheStats,
    /// Slice-memo traffic attributable to this run.
    pub slice: SliceCacheStats,
    /// Whole-run per-stage breakdown (checker-attributable counters are
    /// on the [`CheckerBreakdown`]s).
    pub stages: StageStats,
    /// The refreshed outcome record of every unmasked work item, for a
    /// later run's [`Plan::retained`].
    pub outcomes: ItemOutcomes,
}

impl MultiAnalysisRun {
    /// Total wall-clock time (same semantics as
    /// [`AnalysisRun::total_time`]).
    pub fn total_time(&self) -> Duration {
        self.propagate_time + self.solve_time
    }

    /// All reports across checkers, in checker-major canonical order.
    pub fn all_reports(&self) -> impl Iterator<Item = &BugReport> {
        self.checkers.iter().flat_map(|b| b.reports.iter())
    }

    /// Flattens into a single-checker [`AnalysisRun`] — exact for a
    /// [`CheckerSet::single`] run; for larger sets the reports concatenate
    /// in checker order and `suppressed` sums.
    pub fn into_single(self) -> AnalysisRun {
        let mut reports = Vec::new();
        let mut suppressed = 0usize;
        for b in self.checkers {
            reports.extend(b.reports);
            suppressed += b.suppressed;
        }
        AnalysisRun {
            engine: self.engine,
            reports,
            suppressed,
            candidates: self.candidates,
            queries: self.queries,
            propagate_time: self.propagate_time,
            solve_time: self.solve_time,
            peak_memory: self.peak_memory,
            cache: self.cache,
            slice: self.slice,
            stages: self.stages,
        }
    }
}

/// Configuration of [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Propagation limits.
    pub propagate: PropagateOptions,
    /// Path-verdict memo shared by every worker of a run. `Some` by
    /// default with a fresh cache; pass one `Arc` to several runs to share
    /// verdicts across runs or checkers, or `None` to disable verdict
    /// caching. [`MultiAnalysisRun::cache`] counts only the run's own
    /// traffic even when the cache is shared.
    pub cache: Option<Arc<VerdictCache>>,
    /// Shared slice-closure memo handed to engines that support it (the
    /// `FusionSolver`; baselines bypass it). `Some` by default with a
    /// fresh cache; pass a shared `Arc` to memoize closures across
    /// runs, checkers, and engines, or `None` to disable memoization
    /// entirely (engines still reuse one closure across the alternative
    /// paths of a single candidate).
    pub slice_cache: Option<Arc<SliceCache>>,
    /// Abstract-interpretation triage (on by default): per-function
    /// Const/Affine/Interval/KnownBits facts refute candidate paths before
    /// any cache lookup, slice closure, or solver session, and seed the
    /// engine's formula preprocessing. Triage may only *refute* — it never
    /// claims feasibility — so reports are byte-identical with it off (the
    /// CLI exposes `--no-absint`).
    pub absint: bool,
    /// Pre-discovery PDG compaction (on by default unless the
    /// `FUSION_NO_COMPACT` environment variable is set; the CLI exposes
    /// `--no-compact`): frontier reachability pruning, summary-chain
    /// collapse, and isomorphic-fragment verdict sharing. Reports are
    /// byte-identical with it off whenever the propagation step/path
    /// budgets do not bind (compaction only makes discovery cheaper, so a
    /// binding budget can cut the uncompacted walk earlier); discovery
    /// steps and solver queries only ever shrink.
    pub compact: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            propagate: PropagateOptions::default(),
            cache: Some(Arc::new(VerdictCache::new())),
            slice_cache: Some(Arc::new(SliceCache::new())),
            absint: true,
            compact: std::env::var_os("FUSION_NO_COMPACT").is_none(),
        }
    }
}

impl AnalysisOptions {
    /// Default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Default options with verdict caching *and* slice memoization
    /// disabled — the fully conventional per-query configuration.
    pub fn without_cache() -> Self {
        Self {
            cache: None,
            slice_cache: None,
            ..Self::default()
        }
    }

    /// Replaces the slice-closure memo (e.g. with one shared across
    /// checkers or runs).
    pub fn with_slice_cache(mut self, cache: Arc<SliceCache>) -> Self {
        self.slice_cache = Some(cache);
        self
    }
}

/// The outcome for one candidate: either all paths were proven
/// infeasible (suppressed) or a report was produced. `Clone` so a later
/// run can replay the recorded outcomes of unaffected work items without
/// re-solving them.
#[derive(Debug, Clone)]
pub(crate) enum CandVerdict {
    Suppressed,
    Report(BugReport),
}

/// Per-checker solve-side tallies a driver accumulates while deciding
/// candidates (each candidate carries its [`CheckerId`], so attribution
/// is exact even when workers interleave checkers).
#[derive(Debug, Clone, Copy, Default)]
struct CandTally {
    queries: usize,
    cache_hits: u64,
    cache_misses: u64,
    solve_wall: Duration,
    /// Paths refuted by abstract-interpretation triage (no cache lookup,
    /// no engine query).
    triaged_paths: u64,
    /// Candidates whose every path was triaged away (suppressed with zero
    /// solver-side work).
    triaged_candidates: u64,
    /// Union slice closures skipped because the whole candidate was
    /// triaged (one per fully-triaged candidate).
    slices_skipped: u64,
    /// Queries answered by the compaction pass's isomorphic-fragment
    /// verdict memo (no engine work, counted after an exact cache miss).
    iso_hits: u64,
}

impl CandTally {
    fn add(&mut self, other: &CandTally) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.solve_wall += other.solve_wall;
        self.triaged_paths += other.triaged_paths;
        self.triaged_candidates += other.triaged_candidates;
        self.slices_skipped += other.slices_skipped;
        self.iso_hits += other.iso_hits;
    }
}

/// `(total queries issued, total triaged paths)` across a tally set —
/// the group-boundary snapshot a worker uses to count sink groups whose
/// incremental session was never opened because triage refuted paths.
fn tally_totals(tallies: &[CandTally]) -> (usize, u64) {
    (
        tallies.iter().map(|t| t.queries).sum(),
        tallies.iter().map(|t| t.triaged_paths).sum(),
    )
}

/// Debug-build contract check at the driver entry: the sparse analyses,
/// the PDG construction and the abstract interpreter all assume the IR
/// invariants of [`fusion_ir::validate::check_program`] (acyclic gated
/// SSA, consistent call-site table, unrolled call graph). Release builds
/// skip the walk; the CLI exposes the same check as `--validate`.
fn debug_validate(program: &Program) {
    #[cfg(debug_assertions)]
    {
        let errs = fusion_ir::validate::check_program(program);
        assert!(
            errs.is_empty(),
            "IR validation failed with {} diagnostic(s); first: {}",
            errs.len(),
            errs[0]
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = program;
}

/// Groups candidate indices by **sink function only** — the slice-group
/// batching unit. Candidates against the same sink share most of their
/// slices, so solving them back-to-back maximizes what an incremental
/// engine can reuse (cached local conditions, memoized instantiations,
/// session encodings). The key deliberately ignores the candidate's
/// [`CheckerId`]: in a fused multi-client pass, queries from *different
/// checkers* that land on the same sink function fall into one group and
/// therefore share one solver session, one slice closure, and one warm
/// translation cache — the whole point of fusing the clients. Groups
/// appear in first-occurrence order and indices stay ascending within a
/// group, so walking the groups and sorting results by index reproduces
/// the ungrouped candidate order exactly.
fn group_by_sink(candidates: &[Candidate]) -> Vec<(u64, Vec<usize>)> {
    let mut order: Vec<(u64, Vec<usize>)> = Vec::new();
    let mut slot: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, c) in candidates.iter().enumerate() {
        let key = c.sink.func.0 as u64;
        match slot.get(&key) {
            Some(&g) => order[g].1.push(i),
            None => {
                slot.insert(key, order.len());
                order.push((key, vec![i]));
            }
        }
    }
    order
}

/// What one worker hands back after draining the group cursor.
struct WorkerOut {
    /// The engine's name (the same for every worker of a run).
    name: &'static str,
    /// `(candidate index, outcome)` pairs, in steal order.
    results: Vec<(usize, CandVerdict)>,
    /// Per-checker tallies (indexed by `CheckerId.0`).
    tallies: Vec<CandTally>,
    memory: MemoryAccountant,
    /// The engine's stage totals accrued during this run.
    stages: EngineStages,
    /// Sink groups this worker never issued a query for because triage
    /// refuted paths in them.
    sessions_skipped: u64,
}

/// The shared, read-only state of a run's solve stage, plus the
/// work-stealing cursor over its sink groups.
struct Solve<'a> {
    program: &'a Program,
    pdg: &'a Pdg,
    set: &'a CheckerSet,
    cache: Option<&'a VerdictCache>,
    facts: Option<&'a Arc<ProgramFacts>>,
    compact: Option<&'a CompactPdg>,
    prov: Option<&'a SessionProvenance>,
    slice_cache: Option<&'a Arc<SliceCache>>,
    candidates: &'a [Candidate],
    groups: &'a [(u64, Vec<usize>)],
    cursor: AtomicUsize,
}

impl Solve<'_> {
    /// One worker: grabs whole sink groups off the cursor until none are
    /// left. Group granularity keeps related queries on one engine (the
    /// point of the batching) while `fetch_add` keeps the grab wait-free
    /// and the tail balanced.
    fn work(&self, engine: &mut dyn FeasibilityEngine) -> WorkerOut {
        if let Some(sc) = self.slice_cache {
            engine.attach_slice_cache(Arc::clone(sc));
        }
        if let Some(f) = self.facts {
            engine.attach_absint(Arc::clone(f));
        }
        let before = engine.stage_totals();
        let mut out = WorkerOut {
            name: engine.name(),
            results: Vec::new(),
            tallies: vec![CandTally::default(); self.set.len()],
            memory: MemoryAccountant::new(),
            stages: EngineStages::default(),
            sessions_skipped: 0,
        };
        while let Some((key, idxs)) = self.groups.get(self.cursor.fetch_add(1, Ordering::Relaxed)) {
            engine.begin_group(*key);
            let (q_before, tr_before) = tally_totals(&out.tallies);
            for &idx in idxs {
                let cand = &self.candidates[idx];
                let v = self.decide(engine, cand, &mut out.tallies[cand.checker.0]);
                out.results.push((idx, v));
            }
            let (q_after, tr_after) = tally_totals(&out.tallies);
            if q_after == q_before && tr_after > tr_before {
                out.sessions_skipped += 1;
            }
        }
        out.memory = engine.memory().clone();
        out.stages = engine.stage_totals().since(&before);
        out
    }

    /// Decides one candidate: query each alternative path until one is
    /// feasible. With a cache, each path's verdict is looked up by
    /// canonical key first and engine misses are stored back (Unknown is
    /// never stored). `tally.queries` counts only queries actually issued
    /// to the engine; hits/misses/solve-wall accumulate alongside so the
    /// fused run can attribute solve effort per checker.
    ///
    /// With abstract facts, each path is first checked against them
    /// ([`ProgramFacts::path_refuted`]): a refuted path is infeasible in
    /// every execution, so it is skipped with zero cache or engine work,
    /// and a candidate whose *every* path is refuted short-circuits to
    /// suppression before [`FeasibilityEngine::begin_candidate`] — no
    /// session is touched and no slice closure is ever computed for it.
    /// Triage may only refute, never claim feasibility, so reports are
    /// byte-identical either way.
    ///
    /// With a provenance recorder (warm analysis service), every
    /// verdict-cache and iso-memo *insert* also records the inserted key's
    /// on-path function span — the `path_set_key → functions` index the
    /// dirtiness tracker later uses to evict exactly the entries an edit
    /// can reach. The record holds function ids and content hashes only,
    /// never a condition (§3.2.2).
    fn decide(
        &self,
        engine: &mut dyn FeasibilityEngine,
        cand: &Candidate,
        tally: &mut CandTally,
    ) -> CandVerdict {
        let program = self.program;
        let kind = self.set.get(cand.checker).kind;
        let triaged: Vec<bool> = match self.facts {
            Some(f) => cand
                .paths
                .iter()
                .map(|p| f.path_refuted(program, p, kind))
                .collect(),
            None => vec![false; cand.paths.len()],
        };
        let refuted = triaged.iter().filter(|&&t| t).count();
        tally.triaged_paths += refuted as u64;
        if refuted == cand.paths.len() {
            tally.triaged_candidates += 1;
            tally.slices_skipped += 1;
            return CandVerdict::Suppressed;
        }
        // Announce the candidate so the engine can compute the backward
        // closure once for the union of the alternative paths (lazily — a
        // candidate fully answered by the verdict cache never slices). The
        // full path set is announced even when some paths were triaged:
        // the union closure of a superset is sound for every subset, and
        // keeping the canonical key independent of triage keeps the slice
        // memo shared between triaged and untriaged runs.
        let cand_key = path_set_key(program, &cand.paths);
        engine.begin_candidate(program, self.pdg, cand_key, &cand.paths);
        let mut verdict = Feasibility::Infeasible;
        let mut witness: Option<&DependencePath> = None;
        for (path, &is_triaged) in cand.paths.iter().zip(&triaged) {
            if is_triaged {
                continue;
            }
            let slice = std::slice::from_ref(path);
            let feasibility = match self.cache {
                Some(c) => {
                    let key = VerdictCache::key(program, slice);
                    match c.get(key) {
                        Some(v) => {
                            tally.cache_hits += 1;
                            v
                        }
                        None => {
                            tally.cache_misses += 1;
                            let v = self.query(engine, slice, tally);
                            c.insert(key, v);
                            if let Some(p) = self.prov {
                                p.verdicts.record(key, slice);
                            }
                            v
                        }
                    }
                }
                None => self.query(engine, slice, tally),
            };
            match feasibility {
                Feasibility::Feasible => {
                    verdict = Feasibility::Feasible;
                    witness = Some(path);
                    break;
                }
                Feasibility::Unknown => {
                    verdict = Feasibility::Unknown;
                    witness.get_or_insert(path);
                }
                Feasibility::Infeasible => {}
            }
        }
        match verdict {
            Feasibility::Infeasible => CandVerdict::Suppressed,
            v => CandVerdict::Report(BugReport {
                source: cand.source,
                sink: cand.sink,
                verdict: v,
                path: witness.expect("non-infeasible verdict has a path").clone(),
            }),
        }
    }

    /// Decides one path's feasibility. With a compacted view, a path whose
    /// exact key missed is first looked up in the isomorphic-fragment memo
    /// ([`CompactPdg::iso_key`]): a hit replays the definite verdict of a
    /// structurally identical path already decided (renaming functions
    /// and call sites cannot change satisfiability — no identity reaches
    /// the solver), so the query is skipped entirely. Unknown verdicts are
    /// never memoized, so budget-dependent outcomes never leak between
    /// fragments.
    fn query(
        &self,
        engine: &mut dyn FeasibilityEngine,
        slice: &[DependencePath],
        tally: &mut CandTally,
    ) -> Feasibility {
        let iso = self.compact.map(|cp| (cp.iso(), cp.iso_key(slice)));
        if let Some(v) = iso.as_ref().and_then(|(memo, key)| memo.get(*key)) {
            tally.iso_hits += 1;
            return v;
        }
        tally.queries += 1;
        let o = engine.check_paths(self.program, self.pdg, slice);
        tally.solve_wall += o.duration;
        if let Some((memo, key)) = iso {
            memo.insert(key, o.feasibility);
            if let Some(p) = self.prov {
                p.iso.record(key, slice);
            }
        }
        o.feasibility
    }
}

/// Splits the canonical `(checker, verdict)` sequence of a fused run
/// into per-checker breakdowns. Because the fused candidate order is
/// checker-major (`(checker_idx, source_idx)`), each checker's report
/// subsequence is exactly what a single-checker run produces.
fn assemble_breakdowns(
    set: &CheckerSet,
    ordered: Vec<(CheckerId, CandVerdict)>,
    tallies: &[CandTally],
    per_checker_steps: &[u64],
) -> Vec<CheckerBreakdown> {
    let mut out: Vec<CheckerBreakdown> = set
        .iter()
        .map(|(id, c)| CheckerBreakdown {
            kind: c.kind,
            reports: Vec::new(),
            suppressed: 0,
            candidates: 0,
            queries: tallies[id.0].queries,
            cache_hits: tallies[id.0].cache_hits,
            cache_misses: tallies[id.0].cache_misses,
            discovery_steps: per_checker_steps[id.0],
            solve_wall: tallies[id.0].solve_wall,
        })
        .collect();
    for (id, v) in ordered {
        let b = &mut out[id.0];
        b.candidates += 1;
        match v {
            CandVerdict::Suppressed => b.suppressed += 1,
            CandVerdict::Report(r) => b.reports.push(r),
        }
    }
    out
}

/// Recorded outcomes of one run, keyed by `(checker, source)` work item:
/// the canonical per-candidate verdicts and the discovery steps the item
/// took. A later run replays the record of every work item its edit
/// cannot reach — byte-identically, because a work item whose call-graph
/// component contains no edited function discovers the same candidates
/// and receives the same verdicts as a cold run of the edited program
/// (dependence paths, slice closures, and compaction liveness never leave
/// the component). Only outcomes are recorded — never a path condition
/// (§3.2.2).
#[derive(Debug, Clone, Default)]
pub struct ItemOutcomes {
    map: std::collections::HashMap<(usize, Vertex), ItemRecord>,
}

#[derive(Debug, Clone)]
pub(crate) struct ItemRecord {
    pub(crate) verdicts: Vec<CandVerdict>,
    pub(crate) steps: u64,
}

impl ItemOutcomes {
    pub(crate) fn get(&self, id: CheckerId, src: Vertex) -> Option<&ItemRecord> {
        self.map.get(&(id.0, src))
    }

    /// Number of recorded `(checker, source)` work items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no work item has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates the recorded items (snapshot serialization sorts them
    /// before writing, so map order never leaks into bytes).
    pub(crate) fn records(&self) -> impl Iterator<Item = (&(usize, Vertex), &ItemRecord)> {
        self.map.iter()
    }

    /// Inserts (or overwrites) one recorded item. Used by the snapshot
    /// reader and the shard merge, which combine per-shard outcome sets
    /// into one replayable whole.
    pub(crate) fn insert_record(&mut self, key: (usize, Vertex), rec: ItemRecord) {
        self.map.insert(key, rec);
    }
}

/// Where the engines that decide candidates come from. The thread count
/// of a run is the number of engines.
pub enum Engines<'a> {
    /// One caller-owned engine, run inline on the calling thread. The
    /// caller keeps the engine and can read its
    /// [`FeasibilityEngine::records`] and [`FeasibilityEngine::memory`]
    /// afterwards.
    One(&'a mut dyn FeasibilityEngine),
    /// A factory building one engine per worker, and the worker count
    /// (1 runs inline, with the exact accounting of [`Engines::One`]).
    PerThread(&'a (dyn Fn() -> Box<dyn FeasibilityEngine> + Sync), usize),
}

impl Engines<'_> {
    fn threads(&self) -> usize {
        match self {
            Engines::One(_) => 1,
            Engines::PerThread(_, threads) => (*threads).max(1),
        }
    }
}

/// What [`analyze`] does with each `(checker, source)` work item: run it
/// (discover its candidates and decide them), replay its recorded
/// [`ItemOutcomes`] record, or mask it (no report, no record).
/// [`Plan::default`] is a cold scan that runs every item; a warm rescan
/// replays the items its edit cannot reach; a shard masks the items it
/// does not own.
#[derive(Default)]
pub struct Plan<'a> {
    /// Outcomes recorded by an earlier run, replayed for unaffected items.
    pub retained: Option<&'a ItemOutcomes>,
    /// Per-function "the edit can reach this" mask — the connected
    /// component of the edited functions over the symmetric
    /// caller∪callee adjacency (of the old and new programs). An item
    /// whose source function is unaffected replays its retained record,
    /// if it has one. Out-of-range functions (the program grew) count as
    /// affected; `None` marks every function affected.
    pub affected: Option<&'a [bool]>,
    /// Per-function ownership mask: an item whose source function is not
    /// owned is masked. `None` owns every function.
    pub owned: Option<&'a [bool]>,
    /// Resident abstract facts. `None` computes them when
    /// [`AnalysisOptions::absint`] is on and at least one item runs.
    pub facts: Option<Arc<ProgramFacts>>,
    /// Resident compacted view. `None` builds one when
    /// [`AnalysisOptions::compact`] is on and at least one item runs.
    pub compact: Option<&'a CompactPdg>,
    /// Provenance recorder for verdict/iso-memo inserts (the
    /// `path_set_key → functions` index the next edit's invalidation
    /// uses).
    pub prov: Option<&'a SessionProvenance>,
}

/// One work item's fate under a [`Plan`].
enum Fate<'a> {
    Run,
    Replay(&'a ItemRecord),
    Masked,
}

impl<'a> Plan<'a> {
    fn fate(&self, id: CheckerId, src: Vertex) -> Fate<'a> {
        let f = src.func.index();
        if self
            .owned
            .is_some_and(|o| !o.get(f).copied().unwrap_or(true))
        {
            return Fate::Masked;
        }
        let unaffected = self
            .affected
            .is_some_and(|a| !a.get(f).copied().unwrap_or(true));
        match self.retained.and_then(|r| r.get(id, src)) {
            Some(rec) if unaffected => Fate::Replay(rec),
            _ => Fate::Run,
        }
    }
}

/// Runs a [`CheckerSet`] over a program in **one fused pass**: the outer
/// loop of Algorithm 5 for every `(checker, source)` work item at once.
///
/// Items that run are discovered first (sharded across the engines'
/// threads, merged in item order), then all their candidates are grouped
/// by sink function and decided one group at a time. Group keys ignore
/// the checker, so candidates from different checkers landing on the
/// same sink share the engine's group-scoped state (sessions, instance
/// memos) and the slice memo. With one engine the groups are solved
/// inline; with more, workers steal whole groups off an atomic cursor and
/// results merge back by candidate index. Replayed items contribute their
/// recorded verdicts and steps, with zero queries and cache traffic.
///
/// A candidate is reported when *any* of its alternative paths is
/// feasible; it is suppressed only when every path is proven infeasible;
/// undecided candidates are reported conservatively (matching how bug
/// detectors treat solver timeouts). Reports are byte-identical at any
/// thread count and for any plan that replays records of the same
/// program.
pub fn analyze(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    engines: Engines<'_>,
    options: &AnalysisOptions,
    plan: Plan<'_>,
) -> MultiAnalysisRun {
    debug_validate(program);
    let threads = engines.threads();
    let per_thread = matches!(engines, Engines::PerThread(..));
    let items = multi_source_vertices(program, set);
    let fates: Vec<Fate> = items.iter().map(|&(id, src)| plan.fate(id, src)).collect();
    let live: Vec<(CheckerId, Vertex)> = items
        .iter()
        .zip(&fates)
        .filter(|(_, f)| matches!(f, Fate::Run))
        .map(|(&item, _)| item)
        .collect();
    let cache = options.cache.as_deref();
    let cache_before = cache.map(|c| c.stats()).unwrap_or_default();
    let slice_before = options
        .slice_cache
        .as_ref()
        .map(|c| c.stats())
        .unwrap_or_default();
    // Abstract facts, shared by driver-side triage and engine-side
    // seeding (memoized per function inside).
    let facts = plan.facts.clone().or_else(|| {
        (options.absint && !live.is_empty()).then(|| Arc::new(ProgramFacts::compute(program)))
    });

    let t0 = Instant::now();
    // The compaction pass runs inside the discovery span: its build cost
    // is part of what the discover wall attributes.
    let built = (plan.compact.is_none() && options.compact && !live.is_empty())
        .then(|| CompactPdg::build(program, pdg, set, &options.propagate));
    let compact = plan.compact.or(built.as_ref());
    let discovery = discover_items(
        program,
        pdg,
        set,
        &options.propagate,
        &live,
        threads,
        compact,
    );
    let propagate_time = t0.elapsed();
    let mut live_steps = Vec::with_capacity(live.len());
    let mut candidates = Vec::new();
    for d in discovery.items {
        live_steps.push((d.steps, d.candidates.len()));
        candidates.extend(d.candidates);
    }

    let groups = group_by_sink(&candidates);
    let solve = Solve {
        program,
        pdg,
        set,
        cache,
        facts: facts.as_ref(),
        compact,
        prov: plan.prov,
        slice_cache: options.slice_cache.as_ref(),
        candidates: &candidates,
        groups: &groups,
        cursor: AtomicUsize::new(0),
    };
    let t1 = Instant::now();
    let workers = threads.min(groups.len()).max(1);
    let outputs: Vec<WorkerOut> = match engines {
        Engines::One(engine) => vec![solve.work(engine)],
        Engines::PerThread(factory, _) if workers == 1 => vec![solve.work(factory().as_mut())],
        Engines::PerThread(factory, _) => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| solve.work(factory().as_mut())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("solve worker"))
                .collect()
        }),
    };
    let solve_time = t1.elapsed();

    let engine = if per_thread {
        format!("{}×{threads}", outputs[0].name)
    } else {
        outputs[0].name.to_string()
    };
    let mut tallies = vec![CandTally::default(); set.len()];
    let mut stages = StageStats::default();
    let mut sessions_skipped = 0u64;
    let mut memories: Vec<MemoryAccountant> = Vec::with_capacity(outputs.len());
    let mut merged: Vec<(usize, CandVerdict)> = Vec::with_capacity(candidates.len());
    for o in outputs {
        for (t, wt) in tallies.iter_mut().zip(&o.tallies) {
            t.add(wt);
        }
        stages.add_engine(&o.stages);
        sessions_skipped += o.sessions_skipped;
        memories.push(o.memory);
        merged.extend(o.results);
    }
    // Merge by candidate index: the concatenation of the live items'
    // candidates in item order, whichever worker stole which group.
    merged.sort_by_key(|(idx, _)| *idx);

    // Reassemble every unmasked item's verdict list in item order —
    // replayed records verbatim, live items from the merge — recording
    // each for the next run.
    let mut verdicts = merged.into_iter().map(|(_, v)| v);
    let mut live_steps = live_steps.into_iter();
    let mut outcomes = ItemOutcomes::default();
    let mut ordered: Vec<(CheckerId, CandVerdict)> = Vec::new();
    let mut per_checker_steps = vec![0u64; set.len()];
    for (&(id, src), fate) in items.iter().zip(fates) {
        let rec = match fate {
            Fate::Masked => continue,
            Fate::Replay(rec) => rec.clone(),
            Fate::Run => {
                let (steps, n) = live_steps.next().expect("one discovery per live item");
                ItemRecord {
                    verdicts: verdicts.by_ref().take(n).collect(),
                    steps,
                }
            }
        };
        per_checker_steps[id.0] += rec.steps;
        ordered.extend(rec.verdicts.iter().map(|v| (id, v.clone())));
        outcomes.map.insert((id.0, src), rec);
    }

    stages.discover_wall = propagate_time;
    stages.discovery_steps = per_checker_steps.iter().sum();
    stages.discovery_shards = discovery.shards;
    stages.candidates_reanalyzed = candidates.len() as u64;
    stages.triaged_paths = tallies.iter().map(|t| t.triaged_paths).sum();
    stages.triaged_candidates = tallies.iter().map(|t| t.triaged_candidates).sum();
    stages.slices_skipped = tallies.iter().map(|t| t.slices_skipped).sum();
    stages.sessions_skipped = sessions_skipped;
    stages.iso_hits = tallies.iter().map(|t| t.iso_hits).sum();
    if let Some(c) = compact {
        let cs = c.stats();
        stages.vertices_pruned = cs.vertices_pruned;
        stages.edges_pruned = cs.edges_pruned;
        stages.chains_collapsed = cs.chains_collapsed;
    }

    // The graph and the caches are retained for the whole run; every
    // engine and discovery shard was live during it. Because the whole
    // checker set runs in one pass, this is the true whole-scan peak —
    // not a max over per-checker passes.
    let graph_bytes = program.size() as u64 * BYTES_PER_DEF;
    let cache_bytes = cache.map(|c| c.bytes()).unwrap_or(0)
        + options.slice_cache.as_ref().map(|c| c.bytes()).unwrap_or(0);
    let mem = run_accounting(
        memories.iter().chain(discovery.memory.iter()),
        graph_bytes,
        cache_bytes,
    );
    let candidates_total = ordered.len();
    MultiAnalysisRun {
        engine,
        checkers: assemble_breakdowns(set, ordered, &tallies, &per_checker_steps),
        candidates: candidates_total,
        queries: tallies.iter().map(|t| t.queries).sum(),
        propagate_time,
        solve_time,
        peak_memory: mem.peak_total(),
        cache: cache
            .map(|c| c.stats().since(&cache_before))
            .unwrap_or_default(),
        slice: options
            .slice_cache
            .as_ref()
            .map(|c| c.stats().since(&slice_before))
            .unwrap_or_default(),
        stages,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Checker;
    use crate::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};
    use fusion_smt::solver::SolverConfig;

    /// A single-checker run on one caller-owned engine.
    fn one(
        p: &Program,
        g: &Pdg,
        checker: &Checker,
        engine: &mut dyn FeasibilityEngine,
        opts: &AnalysisOptions,
    ) -> AnalysisRun {
        let set = CheckerSet::single(checker.clone());
        analyze(p, g, &set, Engines::One(engine), opts, Plan::default()).into_single()
    }

    /// A single-checker run on `threads` factory-built engines.
    fn per_thread(
        p: &Program,
        g: &Pdg,
        checker: &Checker,
        threads: usize,
        opts: &AnalysisOptions,
    ) -> AnalysisRun {
        let set = CheckerSet::single(checker.clone());
        let engines = Engines::PerThread(&fusion_factory, threads);
        analyze(p, g, &set, engines, opts, Plan::default()).into_single()
    }

    fn run(src: &str) -> AnalysisRun {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let mut engine = FusionSolver::new(SolverConfig::default());
        one(
            &p,
            &g,
            &Checker::null_deref(),
            &mut engine,
            &AnalysisOptions::new(),
        )
    }

    #[test]
    fn reports_feasible_and_suppresses_infeasible() {
        let run = run(
            "extern fn deref(p);\n\
             fn feasible(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn infeasible(x) { let q = null; let r = 1; if (x > 5) { if (x < 3) { r = q; } } deref(r); return 0; }",
        );
        assert_eq!(run.candidates, 2);
        assert_eq!(run.reports.len(), 1);
        assert_eq!(run.suppressed, 1);
        assert_eq!(run.reports[0].verdict, Feasibility::Feasible);
    }

    #[test]
    fn unconditional_flow_is_reported() {
        let run = run("extern fn deref(p); fn f() { let q = null; deref(q); return 0; }");
        assert_eq!(run.reports.len(), 1);
        assert_eq!(run.suppressed, 0);
    }

    #[test]
    fn clean_program_reports_nothing() {
        let run = run("extern fn deref(p); fn f(x) { deref(x); return 0; }");
        assert_eq!(run.candidates, 0);
        assert!(run.reports.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let src = "extern fn deref(p);\n\
             fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }\n\
             fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }\n\
             fn c(x) { let q = null; let r = 1; if (x == 9) { r = q; } deref(r); return 0; }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let mut engine = FusionSolver::new(SolverConfig::default());
        let seq = one(
            &p,
            &g,
            &Checker::null_deref(),
            &mut engine,
            &AnalysisOptions::new(),
        );
        for threads in [1usize, 2, 4] {
            let par = per_thread(
                &p,
                &g,
                &Checker::null_deref(),
                threads,
                &AnalysisOptions::new(),
            );
            let key = |r: &crate::engine::BugReport| (r.source, r.sink);
            let mut a: Vec<_> = seq.reports.iter().map(key).collect();
            let mut b: Vec<_> = par.reports.iter().map(key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "threads = {threads}");
            assert_eq!(seq.suppressed, par.suppressed);
        }
    }

    #[test]
    fn timings_and_memory_are_populated() {
        let run = run("extern fn deref(p); fn f() { let q = null; deref(q); return 0; }");
        assert!(run.peak_memory > 0);
        assert!(run.queries >= 1);
    }

    const MULTI_SRC: &str = "extern fn deref(p);\n\
         fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }\n\
         fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }\n\
         fn c(x) { let q = null; let r = 1; if (x == 9) { r = q; } deref(r); return 0; }";

    fn fusion_factory() -> Box<dyn FeasibilityEngine> {
        Box::new(FusionSolver::new(SolverConfig::default()))
    }

    #[test]
    fn parallel_engine_name_keeps_base_and_thread_count() {
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let run = per_thread(&p, &g, &Checker::null_deref(), 4, &AnalysisOptions::new());
        assert_eq!(run.engine, "fusion×4");
    }

    #[test]
    fn sequential_and_parallel_accounting_agree() {
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let opts = AnalysisOptions::without_cache();
        let mut engine = FusionSolver::new(SolverConfig::default());
        let seq = one(&p, &g, &Checker::null_deref(), &mut engine, &opts);
        // One worker: the unified accounting path must yield the exact
        // sequential peak.
        let par1 = per_thread(&p, &g, &Checker::null_deref(), 1, &opts);
        assert_eq!(seq.peak_memory, par1.peak_memory, "1-thread parity");
        // Many workers: each retains its own engine state, so the summed
        // peak is bounded below by the sequential peak and above by
        // `threads` sequential peaks.
        let par4 = per_thread(&p, &g, &Checker::null_deref(), 4, &opts);
        assert!(par4.peak_memory >= seq.peak_memory);
        assert!(par4.peak_memory <= seq.peak_memory * 4);
    }

    #[test]
    fn cached_runs_report_hits_and_identical_reports() {
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let uncached = {
            let mut e = FusionSolver::new(SolverConfig::default());
            one(
                &p,
                &g,
                &Checker::null_deref(),
                &mut e,
                &AnalysisOptions::without_cache(),
            )
        };
        assert_eq!(uncached.cache, crate::cache::CacheStats::default());

        // Two runs with the same options share its verdict cache: the
        // second run is all hits.
        let opts = AnalysisOptions::new();
        let mut e1 = FusionSolver::new(SolverConfig::default());
        let first = one(&p, &g, &Checker::null_deref(), &mut e1, &opts);
        assert!(first.cache.misses > 0);
        assert!(first.cache.inserts > 0);
        let mut e2 = FusionSolver::new(SolverConfig::default());
        let second = one(&p, &g, &Checker::null_deref(), &mut e2, &opts);
        assert!(second.cache.hits > 0, "warm cache must hit");
        assert_eq!(second.queries, 0, "every verdict came from the cache");

        for cached in [&first, &second] {
            let a: Vec<_> = uncached
                .reports
                .iter()
                .map(|r| (r.source, r.sink))
                .collect();
            let b: Vec<_> = cached.reports.iter().map(|r| (r.source, r.sink)).collect();
            assert_eq!(a, b, "cache must not change reports");
            assert_eq!(uncached.suppressed, cached.suppressed);
        }
    }

    const FUSED_SRC: &str = "extern fn deref(p); extern fn gets(); extern fn fopen(x);\n\
         extern fn getpass(); extern fn sendmsg(y);\n\
         fn a(c) { let q = null; let r = 1; if (c > 0) { r = q; } deref(r); return 0; }\n\
         fn b(c) { let t = gets(); if (c > 1) { fopen(t); } return 0; }\n\
         fn d() { let s = getpass(); sendmsg(s); return 0; }";

    fn report_key(r: &BugReport) -> (Vertex, Vertex, Feasibility, Vec<Vertex>) {
        (r.source, r.sink, r.verdict, r.path.nodes.clone())
    }

    fn fused(p: &Program, g: &Pdg, set: &CheckerSet, opts: &AnalysisOptions) -> MultiAnalysisRun {
        let mut engine = FusionSolver::new(SolverConfig::default());
        analyze(p, g, set, Engines::One(&mut engine), opts, Plan::default())
    }

    #[test]
    fn fused_multi_matches_per_checker_runs() {
        let p = compile(FUSED_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let fused = fused(&p, &g, &set, &AnalysisOptions::new());
        assert_eq!(fused.checkers.len(), 3);
        assert_eq!(
            fused.checkers.iter().map(|b| b.candidates).sum::<usize>(),
            fused.candidates
        );
        assert_eq!(
            fused.checkers.iter().map(|b| b.queries).sum::<usize>(),
            fused.queries
        );
        for (id, checker) in set.iter() {
            let mut e = FusionSolver::new(SolverConfig::default());
            let single = one(&p, &g, checker, &mut e, &AnalysisOptions::new());
            let b = &fused.checkers[id.0];
            assert_eq!(b.kind, checker.kind);
            assert_eq!(b.candidates, single.candidates, "candidates for {id}");
            assert_eq!(b.suppressed, single.suppressed, "suppressed for {id}");
            let av: Vec<_> = single.reports.iter().map(report_key).collect();
            let bv: Vec<_> = b.reports.iter().map(report_key).collect();
            assert_eq!(av, bv, "reports for {id}");
        }
        // The flattened view concatenates per-checker reports.
        assert_eq!(
            fused.all_reports().count(),
            fused
                .checkers
                .iter()
                .map(|b| b.reports.len())
                .sum::<usize>()
        );
    }

    #[test]
    fn fused_threads_match_fused_sequential() {
        let p = compile(FUSED_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let seq = fused(&p, &g, &set, &AnalysisOptions::new());
        for threads in [1usize, 2, 4, 8] {
            let run = analyze(
                &p,
                &g,
                &set,
                Engines::PerThread(&fusion_factory, threads),
                &AnalysisOptions::new(),
                Plan::default(),
            );
            assert_eq!(run.engine, format!("fusion×{threads}"));
            assert_eq!(run.candidates, seq.candidates, "threads={threads}");
            for (sb, rb) in seq.checkers.iter().zip(&run.checkers) {
                assert_eq!(sb.kind, rb.kind);
                assert_eq!(sb.suppressed, rb.suppressed, "threads={threads}");
                let a: Vec<_> = sb.reports.iter().map(report_key).collect();
                let b: Vec<_> = rb.reports.iter().map(report_key).collect();
                assert_eq!(a, b, "threads={threads} kind={}", sb.kind);
            }
        }
    }

    #[test]
    fn compaction_preserves_reports_and_shrinks_work() {
        // `dead` gives pruning something to remove, the `id` corridor
        // collapses to a chain, and the byte-identical bodies of `f` and
        // `g` exercise the isomorphic verdict memo: the compacted run
        // must produce the same reports with strictly fewer discovery
        // steps and strictly fewer solver queries.
        let src = "extern fn deref(p);\n\
             fn dead(y) { let z = y + 1; return z; }\n\
             fn id(x) { return x; }\n\
             fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn g(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn h(c) { let q = null; let u = id(q); let n = dead(c); if (c > n) { deref(u); } return 0; }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let off = AnalysisOptions {
            compact: false,
            ..AnalysisOptions::new()
        };
        let on = AnalysisOptions {
            compact: true,
            ..AnalysisOptions::new()
        };
        let plain = fused(&p, &g, &set, &off);
        let compacted = fused(&p, &g, &set, &on);
        for (pb, cb) in plain.checkers.iter().zip(&compacted.checkers) {
            assert_eq!(pb.kind, cb.kind);
            assert_eq!(pb.candidates, cb.candidates);
            assert_eq!(pb.suppressed, cb.suppressed);
            let a: Vec<_> = pb.reports.iter().map(report_key).collect();
            let b: Vec<_> = cb.reports.iter().map(report_key).collect();
            assert_eq!(a, b, "reports must be byte-identical for {}", pb.kind);
        }
        assert_eq!(plain.stages.vertices_pruned, 0, "off ⇒ no pruning stats");
        assert!(compacted.stages.vertices_pruned > 0);
        assert!(compacted.stages.edges_pruned > 0);
        assert!(compacted.stages.chains_collapsed > 0);
        assert!(
            compacted.stages.discovery_steps < plain.stages.discovery_steps,
            "compacted discovery {} must undercut plain {}",
            compacted.stages.discovery_steps,
            plain.stages.discovery_steps
        );
        assert!(compacted.stages.iso_hits > 0, "f/g paths are isomorphic");
        assert!(
            compacted.queries < plain.queries,
            "iso sharing must drop queries ({} vs {})",
            compacted.queries,
            plain.queries
        );
    }

    #[test]
    fn fused_pass_shares_sessions_and_discovery() {
        // Three per-checker passes open at least one session per checker
        // with candidates; the fused pass shares groups keyed on the sink
        // function only, so it can never open more sessions than the sum.
        let p = compile(FUSED_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let fused = fused(&p, &g, &set, &AnalysisOptions::without_cache());
        assert!(fused.stages.sessions_opened >= 1);
        let mut loop_sessions = 0u64;
        let mut loop_steps = 0u64;
        for (_, checker) in set.iter() {
            let mut e = FusionSolver::new(SolverConfig::default());
            let run = one(&p, &g, checker, &mut e, &AnalysisOptions::without_cache());
            loop_sessions += run.stages.sessions_opened;
            loop_steps += run.stages.discovery_steps;
        }
        assert!(fused.stages.sessions_opened <= loop_sessions);
        // Discovery work is identical — it is the redundant *passes* the
        // fusion removes, not steps.
        assert_eq!(fused.stages.discovery_steps, loop_steps);
        assert_eq!(
            fused
                .checkers
                .iter()
                .map(|b| b.discovery_steps)
                .sum::<u64>(),
            fused.stages.discovery_steps
        );
    }

    #[test]
    fn single_checker_view_matches_the_fused_breakdown() {
        // `into_single` of a singleton-set run must report exactly what
        // the fused breakdown holds.
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::single(Checker::null_deref());
        let multi = fused(&p, &g, &set, &AnalysisOptions::new());
        let single = fused(&p, &g, &set, &AnalysisOptions::new()).into_single();
        assert_eq!(multi.checkers.len(), 1);
        let a: Vec<_> = multi.checkers[0].reports.iter().map(report_key).collect();
        let b: Vec<_> = single.reports.iter().map(report_key).collect();
        assert_eq!(a, b);
        assert_eq!(multi.candidates, single.candidates);
        assert_eq!(multi.queries, single.queries);
    }

    #[test]
    fn work_stealing_merge_is_byte_identical_to_sequential() {
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let mut engine = FusionSolver::new(SolverConfig::default());
        let seq = one(
            &p,
            &g,
            &Checker::null_deref(),
            &mut engine,
            &AnalysisOptions::without_cache(),
        );
        for threads in [1usize, 2, 4, 8] {
            let par = per_thread(
                &p,
                &g,
                &Checker::null_deref(),
                threads,
                &AnalysisOptions::new(),
            );
            // Not just set equality: identical order and contents.
            let a: Vec<_> = seq.reports.iter().map(report_key).collect();
            let b: Vec<_> = par.reports.iter().map(report_key).collect();
            assert_eq!(a, b, "threads = {threads}");
            assert_eq!(seq.suppressed, par.suppressed);
        }
    }

    #[test]
    fn plan_replays_retained_items_and_masks_unowned_ones() {
        let p = compile(FUSED_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let cold = fused(&p, &g, &set, &AnalysisOptions::new());
        assert_eq!(cold.outcomes.len(), multi_source_vertices(&p, &set).len());
        assert_eq!(cold.stages.candidates_reanalyzed, cold.candidates as u64);

        // Every function unaffected: pure replay, no discovery or solving.
        let none = vec![false; p.functions.len()];
        for threads in [1usize, 2, 4, 8] {
            let warm = analyze(
                &p,
                &g,
                &set,
                Engines::PerThread(&fusion_factory, threads),
                &AnalysisOptions::new(),
                Plan {
                    retained: Some(&cold.outcomes),
                    affected: Some(&none),
                    ..Plan::default()
                },
            );
            let a: Vec<_> = cold.all_reports().map(report_key).collect();
            let b: Vec<_> = warm.all_reports().map(report_key).collect();
            assert_eq!(a, b, "threads = {threads}");
            assert_eq!(warm.queries, 0);
            assert_eq!(warm.stages.candidates_reanalyzed, 0);
            assert_eq!(warm.stages.discovery_steps, cold.stages.discovery_steps);
        }

        // Owning only `a` keeps exactly the null checker's report.
        let mut owned = vec![false; p.functions.len()];
        owned[p.func_by_name("a").unwrap().id.index()] = true;
        let shard = analyze(
            &p,
            &g,
            &set,
            Engines::PerThread(&fusion_factory, 2),
            &AnalysisOptions::new(),
            Plan {
                owned: Some(&owned),
                ..Plan::default()
            },
        );
        let kept: Vec<_> = cold
            .all_reports()
            .filter(|r| owned[r.source.func.index()])
            .map(report_key)
            .collect();
        assert!(!kept.is_empty());
        assert_eq!(
            shard.all_reports().map(report_key).collect::<Vec<_>>(),
            kept
        );
        assert_eq!(shard.outcomes.len(), 1, "masked items leave no record");
    }
}
