//! The Pinpoint-style conventional design (Algorithm 2) and its QE / LFS /
//! HFS variants.
//!
//! Compared to the fused engines, this baseline embodies exactly the two
//! scalability problems of §3.1:
//!
//! * **condition caching** — per-function summary conditions are computed
//!   eagerly, *retained across queries* in a persistent term pool, and
//!   charged to the [`Category::Summaries`] accountant;
//! * **condition cloning** — at every call site the cached, *unpreprocessed*
//!   summary is instantiated by variable renaming, duplicating its full
//!   size per context (renamed variables defeat structural sharing); only
//!   the final, fully-cloned formula reaches the standalone Algorithm 3
//!   solver.
//!
//! Variants attach a tactic to the summary cache: `+QE` eliminates internal
//! variables by quantifier elimination (blow-up prone), `+LFS` applies
//! local rewriting, `+HFS` applies solver-driven contextual simplification
//! (expensive in solver calls). These mirror the `qe`, `simplify` and
//! `ctx-solver-simplify` Z3 tactics of the paper's evaluation.

use fusion::engine::{CheckOutcome, Feasibility, FeasibilityEngine, SolveRecord};
use fusion::memory::{Category, MemoryAccountant, BYTES_PER_TERM_NODE};
use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Program, VarId, WORD_BITS};
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::DependencePath;
use fusion_pdg::slice::{compute_slice, Constraint, ConstraintKind, Slice};
use fusion_pdg::translate::{encode_op, instance_var, truthy};
use fusion_smt::preprocess::simplify;
use fusion_smt::solver::{deadline_expired, smt_solve, SatResult, SolverConfig};
use fusion_smt::tactic::{ctx_solver_simplify, quantifier_eliminate_expansion};
use fusion_smt::term::{Sort, TermId, TermKind, TermPool, VarIdx};
use std::collections::{HashMap, HashSet, VecDeque};

/// Which condition-size-reduction tactic the baseline applies to cached
/// summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tactic {
    /// Plain Pinpoint: no tactic.
    None,
    /// Quantifier elimination of summary-internal variables.
    Qe,
    /// Lightweight formula simplification (local rewriting).
    Lfs,
    /// Heavyweight formula simplification (solver-driven).
    Hfs,
}

/// A cached per-function summary condition.
#[derive(Debug, Clone)]
struct Summary {
    formula: TermId,
    var_map: HashMap<VarIdx, VarId>,
}

/// The conventional engine (Algorithm 2 + Algorithm 3).
#[derive(Debug)]
pub struct PinpointEngine {
    /// Per-query SMT budget.
    pub per_call: SolverConfig,
    /// Instance budget; exceeding it is a memory-out.
    pub max_instances: usize,
    /// QE node budget (per summary).
    pub qe_budget: usize,
    tactic: Tactic,
    /// Persistent pool: cached summaries and their clones live here for
    /// the entire run — the memory problem the paper measures.
    pool: TermPool,
    summaries: HashMap<FuncId, Summary>,
    memory: MemoryAccountant,
    records: Vec<SolveRecord>,
    qe_blowups: usize,
}

impl PinpointEngine {
    /// Plain Pinpoint.
    pub fn new(per_call: SolverConfig) -> Self {
        Self::with_tactic(per_call, Tactic::None)
    }

    /// Pinpoint armed with a summary tactic.
    pub fn with_tactic(per_call: SolverConfig, tactic: Tactic) -> Self {
        Self {
            per_call,
            max_instances: 1 << 14,
            qe_budget: 1 << 14,
            tactic,
            pool: TermPool::new(),
            summaries: HashMap::new(),
            memory: MemoryAccountant::new(),
            records: Vec::new(),
            qe_blowups: 0,
        }
    }

    /// How many summaries blew the QE node budget (a proxy for the
    /// memory-out the paper reports for Pinpoint+QE on all but the
    /// smallest subject).
    pub fn qe_blowups(&self) -> usize {
        self.qe_blowups
    }

    /// Builds (or fetches) the cached summary condition of `fid` for the
    /// given slice. Conventional design: the summary covers the *whole*
    /// function body relevant to conditions — we take the union of slice
    /// vertices seen so far, rebuilding when the slice grows.
    fn summary(&mut self, program: &Program, slice: &Slice, fid: FuncId) -> Summary {
        // Cache hit only if every sliced vertex is already covered; for
        // simplicity the summary is built from the full function body, so
        // one build always suffices.
        if let Some(s) = self.summaries.get(&fid) {
            return s.clone();
        }
        let func = program.func(fid);
        let _ = slice;
        let pool = &mut self.pool;
        let mut var_map = HashMap::new();
        let mut local = |pool: &mut TermPool, v: VarId| -> TermId {
            let t = pool.var(&format!("s{}:v{}", fid.0, v.0), Sort::Bv(WORD_BITS));
            if let TermKind::Var(idx) = *pool.kind(t) {
                var_map.insert(idx, v);
            }
            t
        };
        let mut parts = Vec::new();
        for def in &func.defs {
            match &def.kind {
                DefKind::Param { .. } | DefKind::Branch { .. } | DefKind::Call { .. } => {}
                DefKind::Const { value, .. } => {
                    let lhs = local(pool, def.var);
                    let k = pool.bv_const(*value as u64, WORD_BITS);
                    parts.push(pool.eq(lhs, k));
                }
                DefKind::Copy { src } | DefKind::Return { src } => {
                    let lhs = local(pool, def.var);
                    let rhs = local(pool, *src);
                    parts.push(pool.eq(lhs, rhs));
                }
                DefKind::Binary { op, lhs: a, rhs: b } => {
                    let lhs = local(pool, def.var);
                    let ta = local(pool, *a);
                    let tb = local(pool, *b);
                    let rhs = encode_op(pool, *op, ta, tb);
                    parts.push(pool.eq(lhs, rhs));
                }
                DefKind::Ite {
                    cond,
                    then_v,
                    else_v,
                } => {
                    let lhs = local(pool, def.var);
                    let tc = local(pool, *cond);
                    let tt = local(pool, *then_v);
                    let te = local(pool, *else_v);
                    let c = truthy(pool, tc);
                    let rhs = pool.ite(c, tt, te);
                    parts.push(pool.eq(lhs, rhs));
                }
            }
        }
        let mut formula = pool.and(&parts);
        // Apply the configured tactic to the cached condition.
        match self.tactic {
            Tactic::None => {}
            Tactic::Lfs => {
                formula = simplify(pool, formula);
            }
            Tactic::Hfs => {
                let (simplified, _stats) = ctx_solver_simplify(pool, formula, &self.per_call);
                formula = simplified;
            }
            Tactic::Qe => {
                // Eliminate summary-internal variables: everything except
                // parameters, the return value, and branch/gate conditions
                // (the summary's interface).
                let func = program.func(fid);
                let mut interface: HashSet<VarId> = func.params.iter().copied().collect();
                if let Some(r) = func.ret {
                    interface.insert(r);
                }
                for def in &func.defs {
                    match &def.kind {
                        DefKind::Branch { cond } => {
                            interface.insert(*cond);
                        }
                        DefKind::Ite { cond, .. } => {
                            interface.insert(*cond);
                        }
                        DefKind::Call { args, .. } => {
                            interface.insert(def.var);
                            interface.extend(args.iter().copied());
                        }
                        _ => {}
                    }
                }
                let internals: Vec<VarIdx> = pool
                    .free_vars(formula)
                    .into_iter()
                    .filter(|v| {
                        var_map
                            .get(v)
                            .map(|ir| !interface.contains(ir))
                            .unwrap_or(false)
                    })
                    .collect();
                // Expansion-only QE, as Z3 4.5's bit-vector `qe` behaves.
                match quantifier_eliminate_expansion(pool, formula, &internals, self.qe_budget) {
                    Ok(f) => formula = f,
                    Err(_) => {
                        // QE blew up: the pool growth is real and stays
                        // charged; record the blow-up so harnesses can
                        // report a memory-out like the paper does.
                        self.qe_blowups += 1;
                    }
                }
            }
        }
        let nodes = pool.dag_size(formula) as u64;
        let s = Summary { formula, var_map };
        self.summaries.insert(fid, s.clone());
        // Cached forever: a persistent charge.
        self.memory
            .charge(Category::Summaries, nodes * BYTES_PER_TERM_NODE);
        s
    }
}

impl FeasibilityEngine for PinpointEngine {
    fn name(&self) -> &'static str {
        match self.tactic {
            Tactic::None => "pinpoint",
            Tactic::Qe => "pinpoint+qe",
            Tactic::Lfs => "pinpoint+lfs",
            Tactic::Hfs => "pinpoint+hfs",
        }
    }

    fn check_paths(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> CheckOutcome {
        let start = std::time::Instant::now();
        let deadline = self.per_call.deadline_from(start);
        let slice = compute_slice(program, pdg, paths);
        let pool_before = self.pool.len();

        let mut parts: Vec<TermId> = Vec::new();
        let mut instances: HashSet<(Vec<CallSiteId>, FuncId)> = HashSet::new();
        let mut work: VecDeque<(Vec<CallSiteId>, FuncId)> = VecDeque::new();
        let schedule = |instances: &mut HashSet<(Vec<CallSiteId>, FuncId)>,
                        work: &mut VecDeque<(Vec<CallSiteId>, FuncId)>,
                        ctx: Vec<CallSiteId>,
                        f: FuncId| {
            if instances.insert((ctx.clone(), f)) {
                work.push_back((ctx, f));
            }
        };

        for Constraint { ctx, func, kind } in &slice.constraints {
            schedule(&mut instances, &mut work, ctx.clone(), *func);
            let f = program.func(*func);
            match kind {
                ConstraintKind::BranchTrue { branch } => {
                    let DefKind::Branch { cond } = f.def(*branch).kind else {
                        unreachable!("guards are branches")
                    };
                    let cv = instance_var(&mut self.pool, ctx, *func, cond);
                    let t = truthy(&mut self.pool, cv);
                    parts.push(t);
                }
                ConstraintKind::IteGate { ite, taken_then } => {
                    let DefKind::Ite { cond, .. } = f.def(*ite).kind else {
                        unreachable!("gated vertices are ites")
                    };
                    let cv = instance_var(&mut self.pool, ctx, *func, cond);
                    let t = truthy(&mut self.pool, cv);
                    parts.push(if *taken_then { t } else { self.pool.not(t) });
                }
            }
        }

        // Clone the cached summary at every instance; bind parameters,
        // call results and returns across instances.
        let mut blowup = false;
        while let Some((ctx, fid)) = work.pop_front() {
            // Cloning full-size summaries is the slow part of this
            // baseline: poll the per-call deadline so a pathological query
            // degrades to Unknown (same handling as an instance blow-up)
            // instead of stalling a worker.
            if instances.len() > self.max_instances || deadline_expired(deadline) {
                blowup = true;
                break;
            }
            if !slice.funcs.contains_key(&fid) {
                continue;
            }
            let summary = self.summary(program, &slice, fid);
            let func = program.func(fid);
            // Instantiate: rename every summary variable into this context.
            let mut subst: HashMap<VarIdx, TermId> = HashMap::new();
            for smt_var in self.pool.free_vars(summary.formula) {
                let target = match summary.var_map.get(&smt_var) {
                    Some(&ir_var) => instance_var(&mut self.pool, &ctx, fid, ir_var),
                    None => {
                        let sort = self.pool.var_sort(smt_var);
                        self.pool.fresh_var("pp", sort)
                    }
                };
                subst.insert(smt_var, target);
            }
            let inst = self.pool.substitute(summary.formula, &subst);
            parts.push(inst);

            // Cross-instance bindings. Parameters are always bound (the
            // whole-function summary mentions them); calls are cloned at
            // every call site *in the slice* — exactly Algorithm 4's
            // instance set, but with the full-size cached summary as the
            // cloning unit (Table 1's `O(kn + m)`).
            if let Some(&site) = ctx.last() {
                let cs = program.call_site(site);
                let caller_ctx = ctx[..ctx.len() - 1].to_vec();
                let caller = program.func(cs.caller);
                let DefKind::Call { args, .. } = &caller.def(cs.stmt).kind else {
                    unreachable!("call sites point at calls")
                };
                for (index, &pvar) in func.params.iter().enumerate() {
                    let actual = args[index];
                    let lhs = instance_var(&mut self.pool, &ctx, fid, pvar);
                    let rhs = instance_var(&mut self.pool, &caller_ctx, cs.caller, actual);
                    let e = self.pool.eq(lhs, rhs);
                    parts.push(e);
                }
                schedule(&mut instances, &mut work, caller_ctx, cs.caller);
            }
            let fs = &slice.funcs[&fid];
            for &v in &fs.verts {
                if let DefKind::Call { callee, site, .. } = &func.def(v).kind {
                    let callee_f = program.func(*callee);
                    if callee_f.is_extern {
                        continue;
                    }
                    let mut sub_ctx = ctx.clone();
                    sub_ctx.push(*site);
                    let ret = callee_f.ret.expect("non-extern has a return");
                    let lhs = instance_var(&mut self.pool, &ctx, fid, v);
                    let rhs = instance_var(&mut self.pool, &sub_ctx, *callee, ret);
                    schedule(&mut instances, &mut work, sub_ctx, *callee);
                    let e = self.pool.eq(lhs, rhs);
                    parts.push(e);
                }
            }
        }

        if blowup {
            let grown = (self.pool.len() - pool_before) as u64 * BYTES_PER_TERM_NODE;
            self.memory.charge(Category::PathConditions, grown);
            return CheckOutcome {
                feasibility: Feasibility::Unknown,
                duration: start.elapsed(),
                condition_nodes: self.pool.len() as u64,
                instances: instances.len(),
                preprocess_decided: false,
            };
        }

        let formula = self.pool.and(&parts);
        // Budget the final query with the wall-clock remaining after
        // cloning; the cloned condition is charged either way — the pool
        // retains it even when the query never ran.
        let Some(cfg) = self.per_call.with_remaining(deadline) else {
            let grown = (self.pool.len() - pool_before) as u64 * BYTES_PER_TERM_NODE;
            self.memory.charge(Category::PathConditions, grown);
            let outcome = CheckOutcome {
                feasibility: Feasibility::Unknown,
                duration: start.elapsed(),
                condition_nodes: self.pool.dag_size(formula) as u64,
                instances: instances.len(),
                preprocess_decided: false,
            };
            self.records.push(SolveRecord::from_outcome(&outcome));
            return outcome;
        };
        let (result, stats) = smt_solve(&mut self.pool, formula, &cfg);
        // The cloned condition stays in the persistent pool until the end
        // of the run — exactly the caching cost of Fig. 1(c). Charge the
        // growth to PathConditions.
        let grown = (self.pool.len() - pool_before) as u64 * BYTES_PER_TERM_NODE;
        self.memory.charge(Category::PathConditions, grown);
        let transient = stats.cnf_clauses as u64 * 16;
        self.memory.charge(Category::SolverState, transient);
        self.memory.release(Category::SolverState, transient);

        let feasibility = match result {
            SatResult::Sat(_) => Feasibility::Feasible,
            SatResult::Unsat => Feasibility::Infeasible,
            SatResult::Unknown => Feasibility::Unknown,
        };
        let outcome = CheckOutcome {
            feasibility,
            duration: start.elapsed(),
            condition_nodes: self.pool.dag_size(formula) as u64,
            instances: instances.len(),
            preprocess_decided: stats.preprocess_decided,
        };
        self.records.push(SolveRecord::from_outcome(&outcome));
        outcome
    }

    fn memory(&self) -> &MemoryAccountant {
        &self.memory
    }

    fn records(&self) -> &[SolveRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion::checkers::{Checker, CheckerSet};
    use fusion::engine::{analyze, AnalysisOptions, Engines, Plan};
    use fusion::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};

    const MIXED: &str = "extern fn deref(p);\n\
        fn bar(x) { let y = x * 2; let z = y; return z; }\n\
        fn foo(a, b) {\n\
          let pp = null;\n\
          let r = 1;\n\
          if (bar(a) < bar(b)) { r = pp; }\n\
          deref(r);\n\
          return 0;\n\
        }\n\
        fn never(x) {\n\
          let q = null;\n\
          let r = 1;\n\
          if (x > 5) { if (x < 3) { r = q; } }\n\
          deref(r);\n\
          return 0;\n\
        }";

    fn run_with(engine: &mut dyn FeasibilityEngine) -> (usize, usize) {
        let p = compile(MIXED, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let run = analyze(
            &p,
            &g,
            &CheckerSet::single(Checker::null_deref()),
            Engines::One(engine),
            &AnalysisOptions::new(),
            Plan::default(),
        )
        .into_single();
        (run.reports.len(), run.suppressed)
    }

    #[test]
    fn pinpoint_reports_same_bugs_as_fusion() {
        // "Since they work with the same precision ... the bugs they
        // report are the same."
        let mut pinpoint = PinpointEngine::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        assert_eq!(run_with(&mut pinpoint), run_with(&mut fused));
    }

    #[test]
    fn pinpoint_retains_summary_and_condition_memory() {
        let mut pinpoint = PinpointEngine::new(SolverConfig::default());
        let _ = run_with(&mut pinpoint);
        assert!(pinpoint.memory().peak(Category::Summaries) > 0);
        assert!(pinpoint.memory().current(Category::PathConditions) > 0);
        // Fusion retains neither.
        let mut fused = FusionSolver::new(SolverConfig::default());
        let _ = run_with(&mut fused);
        assert_eq!(fused.memory().peak(Category::Summaries), 0);
        assert_eq!(fused.memory().current(Category::PathConditions), 0);
    }

    #[test]
    fn variants_report_same_bugs() {
        for tactic in [Tactic::Lfs, Tactic::Hfs] {
            let mut engine = PinpointEngine::with_tactic(SolverConfig::default(), tactic);
            let mut fused = FusionSolver::new(SolverConfig::default());
            assert_eq!(run_with(&mut engine), run_with(&mut fused), "{tactic:?}");
        }
    }

    #[test]
    fn qe_variant_still_sound_under_blowup() {
        let mut engine = PinpointEngine::with_tactic(SolverConfig::default(), Tactic::Qe);
        engine.qe_budget = 64; // force frequent blow-ups
        let mut fused = FusionSolver::new(SolverConfig::default());
        assert_eq!(run_with(&mut engine), run_with(&mut fused));
    }

    #[test]
    fn names_reflect_tactics() {
        assert_eq!(
            PinpointEngine::new(SolverConfig::default()).name(),
            "pinpoint"
        );
        assert_eq!(
            PinpointEngine::with_tactic(SolverConfig::default(), Tactic::Qe).name(),
            "pinpoint+qe"
        );
    }
}
