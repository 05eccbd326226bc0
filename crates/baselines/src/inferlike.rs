//! An Infer-like compositional analyzer (the Table 5 comparator).
//!
//! Models the three properties §5.2 attributes Infer's numbers to:
//!
//! * **path-insensitivity** — flows are reported by reachability on the
//!   dependence graph with *no* feasibility check, so every infeasible
//!   guard becomes a false positive ("the innate approximation of
//!   abduction");
//! * **limited cross-file reasoning** — per-function summaries compose
//!   only up to a bounded call depth, so deep inter-procedural flows are
//!   missed ("its limited capability of detecting cross-file bugs");
//! * **summary caching** — pre/post summaries are computed for *every*
//!   function and retained for the whole run ("it generates and caches
//!   many function summaries"), charged to [`Category::Summaries`].
//!
//! The analyzer is bottom-up over the call graph like bi-abduction: each
//! function gets a summary of (a) sink hits involving its parameters,
//! (b) parameter-to-return flows, (c) fact-born-here escapes.

use fusion::checkers::Checker;
use fusion::engine::{AnalysisRun, BugReport, Feasibility};
use fusion::memory::{Category, MemoryAccountant, BYTES_PER_DEF};
use fusion_ir::ssa::{DefKind, FuncId, Program, VarId};
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::DependencePath;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// What a value inside a function can be, abstractly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Origin {
    /// Derived from parameter `i`.
    Param(usize),
    /// Derived from a source statement (function, definition).
    Source(FuncId, VarId),
}

/// The compositional summary of one function. Depths count how many call
/// levels a flow has already crossed; composition adds one per call and
/// drops flows beyond the configured bound (the cross-file limitation).
#[derive(Debug, Clone, Default)]
struct Summary {
    /// (origin, consumed depth) pairs reaching the return value.
    ret: BTreeSet<(Origin, usize)>,
    /// (origin, consumed depth, sink function, sink statement).
    sink_hits: BTreeSet<(Origin, usize, FuncId, VarId)>,
}

/// Configuration of the Infer-like analyzer.
#[derive(Debug, Clone, Copy)]
pub struct InferOptions {
    /// Summary composition depth: facts do not propagate through more than
    /// this many call levels (the cross-file limitation).
    pub max_compose_depth: usize,
}

impl Default for InferOptions {
    fn default() -> Self {
        Self {
            max_compose_depth: 3,
        }
    }
}

/// Runs the Infer-like analysis for one checker. Returns an
/// [`AnalysisRun`] shaped like the fused engines' so Table 5 can compare
/// directly. All reports carry [`Feasibility::Unknown`] verdicts — the
/// analyzer never consults a solver.
pub fn analyze_inferlike(
    program: &Program,
    _pdg: &Pdg,
    checker: &Checker,
    options: &InferOptions,
) -> AnalysisRun {
    let t0 = Instant::now();
    let mut memory = MemoryAccountant::new();
    // Bottom-up over the (acyclic) call graph with per-function depth
    // tracking: summaries compose only `max_compose_depth` levels.
    let mut summaries: BTreeMap<FuncId, Summary> = BTreeMap::new();
    let order = topo_order(program);
    for fid in order {
        let func = program.func(fid);
        if func.is_extern {
            summaries.insert(fid, Summary::default());
            continue;
        }
        let mut origins: Vec<BTreeSet<(Origin, usize)>> = vec![BTreeSet::new(); func.defs.len()];
        let mut summary = Summary::default();
        for def in &func.defs {
            let mut here: BTreeSet<(Origin, usize)> = BTreeSet::new();
            match &def.kind {
                DefKind::Param { index } => {
                    here.insert((Origin::Param(*index), 0));
                }
                DefKind::Const { is_null: true, .. }
                    if checker.kind == fusion::checkers::CheckKind::NullDeref =>
                {
                    here.insert((Origin::Source(fid, def.var), 0));
                }
                DefKind::Call { callee, args, .. } => {
                    let callee_f = program.func(*callee);
                    let callee_name = program.name(callee_f.name).to_owned();
                    if callee_f.is_extern && checker.source_fns.contains(&callee_name) {
                        here.insert((Origin::Source(fid, def.var), 0));
                    }
                    let is_sink = callee_f.is_extern && checker.sink_fns.contains(&callee_name);
                    for &a in args {
                        for &(origin, depth) in &origins[a.index()] {
                            if is_sink {
                                summary.sink_hits.insert((origin, depth, fid, def.var));
                            }
                            // Pass-through of extern libraries (taint only).
                            if callee_f.is_extern && checker.through_extern && !is_sink {
                                here.insert((origin, depth));
                            }
                        }
                    }
                    // Compose with a non-extern callee's summary, adding
                    // one level of depth and dropping flows beyond the
                    // bound.
                    if !callee_f.is_extern {
                        let cs = summaries.get(callee).cloned().unwrap_or_default();
                        for &(origin, d, sfid, svar) in &cs.sink_hits {
                            match origin {
                                Origin::Param(i) => {
                                    if let Some(arg) = args.get(i) {
                                        for &(o, d0) in &origins[arg.index()] {
                                            let total = d0 + d + 1;
                                            if total <= options.max_compose_depth {
                                                summary.sink_hits.insert((o, total, sfid, svar));
                                            }
                                        }
                                    }
                                }
                                // A callee-internal source hitting a sink
                                // is already in the callee's own report
                                // set; nothing to lift.
                                Origin::Source(..) => {}
                            }
                        }
                        for &(origin, d) in &cs.ret {
                            match origin {
                                Origin::Param(i) => {
                                    if let Some(arg) = args.get(i) {
                                        for &(o, d0) in &origins[arg.index()] {
                                            let total = d0 + d + 1;
                                            if total <= options.max_compose_depth {
                                                here.insert((o, total));
                                            }
                                        }
                                    }
                                }
                                Origin::Source(sf, sv) => {
                                    // A source escaping the callee.
                                    let total = d + 1;
                                    if total <= options.max_compose_depth {
                                        here.insert((Origin::Source(sf, sv), total));
                                    }
                                }
                            }
                        }
                    }
                }
                other => {
                    for (slot, op) in other.operands().into_iter().enumerate() {
                        if checker.propagates_through(func, def.var, slot) {
                            here.extend(origins[op.index()].iter().copied());
                        }
                    }
                }
            }
            origins[def.var.index()] = here;
        }
        if let Some(ret) = func.ret {
            summary.ret = origins[ret.index()].clone();
        }
        let nodes = (summary.sink_hits.len() + summary.ret.len() + 4) as u64;
        memory.charge(Category::Summaries, nodes * 64);
        summaries.insert(fid, summary);
    }

    // Reports: every source-origin sink hit from every summary, with NO
    // feasibility filtering.
    let mut reports: Vec<BugReport> = Vec::new();
    let mut seen: BTreeSet<(FuncId, VarId, FuncId, VarId)> = BTreeSet::new();
    for summary in summaries.values() {
        for &(origin, _depth, sfid, svar) in &summary.sink_hits {
            if let Origin::Source(of, ov) = origin {
                if seen.insert((of, ov, sfid, svar)) {
                    reports.push(BugReport {
                        source: Vertex::new(of, ov),
                        sink: Vertex::new(sfid, svar),
                        verdict: Feasibility::Unknown, // never checked
                        path: DependencePath::unit(Vertex::new(of, ov)),
                    });
                }
            }
        }
    }
    let candidates = reports.len();
    memory.charge(Category::Graph, program.size() as u64 * BYTES_PER_DEF);
    AnalysisRun {
        engine: "infer-like".to_string(),
        reports,
        suppressed: 0,
        candidates,
        queries: 0,
        cache: fusion::cache::CacheStats::default(), // never consults one
        slice: fusion::slice_cache::SliceCacheStats::default(), // never slices
        stages: fusion::engine::StageStats::default(),
        propagate_time: t0.elapsed(),
        solve_time: std::time::Duration::ZERO,
        peak_memory: memory.peak_total(),
    }
}

fn topo_order(program: &Program) -> Vec<FuncId> {
    // Callees before callers (the call graph is a DAG post-unrolling).
    let n = program.functions.len();
    let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for cs in &program.call_sites {
        if cs.caller != cs.callee {
            deps[cs.caller.index()].insert(cs.callee.index());
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut done = vec![false; n];
    // Kahn-style with a stack for determinism.
    let mut progress = true;
    while order.len() < n && progress {
        progress = false;
        for i in 0..n {
            if !done[i] && deps[i].iter().all(|&d| done[d]) {
                done[i] = true;
                order.push(FuncId(i as u32));
                progress = true;
            }
        }
    }
    // Any residue (unexpected cycles) appended conservatively.
    for (i, d) in done.iter().enumerate() {
        if !*d {
            order.push(FuncId(i as u32));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion::checkers::{Checker, CheckerSet};
    use fusion::engine::{analyze, AnalysisOptions, Engines, Plan};
    use fusion::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};
    use fusion_smt::solver::SolverConfig;

    fn setup(src: &str) -> (Program, Pdg) {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        (p, g)
    }

    #[test]
    fn reports_infeasible_flows_as_false_positives() {
        // Fusion suppresses the guarded-impossible flow; infer-like
        // reports it.
        let (p, g) = setup(
            "extern fn deref(p);\n\
             fn f(x) { let q = null; let r = 1; if (x > 5) { if (x < 3) { r = q; } } deref(r); return 0; }",
        );
        let infer = analyze_inferlike(&p, &g, &Checker::null_deref(), &InferOptions::default());
        assert_eq!(infer.reports.len(), 1);
        let mut fused = FusionSolver::new(SolverConfig::default());
        let fusion_run = analyze(
            &p,
            &g,
            &CheckerSet::single(Checker::null_deref()),
            Engines::One(&mut fused),
            &AnalysisOptions::new(),
            Plan::default(),
        )
        .into_single();
        assert_eq!(fusion_run.reports.len(), 0);
    }

    #[test]
    fn misses_deep_interprocedural_flows() {
        // A 5-deep identity chain exceeds the compose depth of 3.
        let (p, g) = setup(
            "extern fn deref(p);\n\
             fn i1(x) { return x; }\n\
             fn i2(x) { return i1(x); }\n\
             fn i3(x) { return i2(x); }\n\
             fn i4(x) { return i3(x); }\n\
             fn i5(x) { return i4(x); }\n\
             fn f() { let q = null; let r = i5(q); deref(r); return 0; }",
        );
        let infer = analyze_inferlike(&p, &g, &Checker::null_deref(), &InferOptions::default());
        assert_eq!(infer.reports.len(), 0, "deep flow must be missed");
        let mut fused = FusionSolver::new(SolverConfig::default());
        let fusion_run = analyze(
            &p,
            &g,
            &CheckerSet::single(Checker::null_deref()),
            Engines::One(&mut fused),
            &AnalysisOptions::new(),
            Plan::default(),
        )
        .into_single();
        assert_eq!(fusion_run.reports.len(), 1, "fusion finds it");
    }

    #[test]
    fn finds_shallow_flows() {
        let (p, g) = setup(
            "extern fn deref(p);\n\
             fn f() { let q = null; deref(q); return 0; }",
        );
        let infer = analyze_inferlike(&p, &g, &Checker::null_deref(), &InferOptions::default());
        assert_eq!(infer.reports.len(), 1);
    }

    #[test]
    fn taint_through_callee_sink() {
        // The sink is inside the callee; the tainted value enters through
        // a parameter.
        let (p, g) = setup(
            "extern fn gets(); extern fn fopen(p);\n\
             fn open_it(path) { fopen(path); return 0; }\n\
             fn f() { let i = gets(); open_it(i); return 0; }",
        );
        let infer = analyze_inferlike(&p, &g, &Checker::cwe23(), &InferOptions::default());
        assert_eq!(infer.reports.len(), 1);
    }

    #[test]
    fn charges_summary_memory_for_every_function() {
        let (p, g) = setup("fn a() { return 1; } fn b() { return a(); } fn c() { return b(); }");
        let run = analyze_inferlike(&p, &g, &Checker::null_deref(), &InferOptions::default());
        assert!(run.peak_memory > 0);
    }
}
