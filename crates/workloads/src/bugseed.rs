//! Ground truth for seeded bugs and precision/recall scoring.
//!
//! Every bug the generator injects lives in a dedicated host function, so a
//! report can be matched back unambiguously by (host function of the
//! source, checker kind). Feasible seeds found = true positives; infeasible
//! seeds reported = false positives; feasible seeds unreported = misses.
//! This gives Table 5's #TP/#FP columns exact denominators, something the
//! paper could only approximate by manual triage.

use fusion::checkers::CheckKind;
use fusion::engine::BugReport;
use fusion_ir::interner::Symbol;
use fusion_ir::ssa::Program;

/// Where a seeded bug's endpoints live (currently both in the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BugSite {
    /// Function containing the source.
    pub source_fn: Symbol,
    /// Function containing the sink.
    pub sink_fn: Symbol,
}

/// One seeded bug and its ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededBug {
    /// Which checker should find it.
    pub kind: CheckKind,
    /// The host function (contains the source).
    pub host: Symbol,
    /// Whether the guarding condition is satisfiable.
    pub feasible: bool,
    /// Endpoint locations.
    pub site: BugSite,
}

/// Precision/recall counts for one checker run against the ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Reports matching a feasible seed.
    pub true_positives: usize,
    /// Reports matching an infeasible seed (or nothing).
    pub false_positives: usize,
    /// Feasible seeds with no report.
    pub missed: usize,
    /// Total reports scored.
    pub reports: usize,
}

impl Score {
    /// False-positive rate among reports, in `[0, 1]`.
    pub fn fp_rate(&self) -> f64 {
        if self.reports == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.reports as f64
        }
    }
}

/// Scores a checker run against the seeded ground truth.
///
/// Reports are matched by the source's containing function; multiple
/// reports against the same seed count once.
pub fn score(
    program: &Program,
    kind: CheckKind,
    seeds: &[SeededBug],
    reports: &[BugReport],
) -> Score {
    let relevant: Vec<&SeededBug> = seeds.iter().filter(|b| b.kind == kind).collect();
    let mut hit = vec![false; relevant.len()];
    let mut score = Score {
        reports: reports.len(),
        ..Default::default()
    };
    for report in reports {
        let host = program.func(report.source.func).name;
        match relevant.iter().position(|b| b.host == host) {
            Some(i) => {
                if relevant[i].feasible {
                    if !hit[i] {
                        score.true_positives += 1;
                    }
                } else {
                    score.false_positives += 1;
                }
                hit[i] = true;
            }
            None => score.false_positives += 1, // unseeded report
        }
    }
    for (i, b) in relevant.iter().enumerate() {
        if b.feasible && !hit[i] {
            score.missed += 1;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genprog::{generate, GenConfig};
    use fusion::checkers::{Checker, CheckerSet};
    use fusion::engine::{analyze, AnalysisOptions, Engines, Plan};
    use fusion::graph_solver::FusionSolver;
    use fusion_ir::{compile_ast, CompileOptions};
    use fusion_pdg::graph::Pdg;
    use fusion_smt::solver::SolverConfig;

    #[test]
    fn fusion_scores_perfectly_on_default_subject() {
        let cfg = GenConfig::default();
        let mut subject = generate(&cfg);
        let program = compile_ast(
            &subject.surface,
            &mut subject.interner,
            CompileOptions::default(),
        )
        .expect("compile");
        let pdg = Pdg::build(&program);
        for (checker, kind) in [
            (Checker::null_deref(), CheckKind::NullDeref),
            (Checker::cwe23(), CheckKind::Cwe23),
            (Checker::cwe402(), CheckKind::Cwe402),
        ] {
            let mut engine = FusionSolver::new(SolverConfig::default());
            let run = analyze(
                &program,
                &pdg,
                &CheckerSet::single(checker.clone()),
                Engines::One(&mut engine),
                &AnalysisOptions::new(),
                Plan::default(),
            )
            .into_single();
            let s = score(&program, kind, &subject.bugs, &run.reports);
            let feasible = subject
                .bugs
                .iter()
                .filter(|b| b.kind == kind && b.feasible)
                .count();
            assert_eq!(s.true_positives, feasible, "{kind}: {s:?}");
            assert_eq!(s.false_positives, 0, "{kind}: {s:?}");
            assert_eq!(s.missed, 0, "{kind}: {s:?}");
        }
    }

    #[test]
    fn score_counts_fp_for_infeasible_seeds() {
        // Construct a fake report against an infeasible seed's host.
        let cfg = GenConfig {
            null_feasible: 0,
            null_infeasible: 1,
            cwe23_feasible: 0,
            cwe23_infeasible: 0,
            cwe402_feasible: 0,
            cwe402_infeasible: 0,
            ..Default::default()
        };
        let mut subject = generate(&cfg);
        let program = compile_ast(
            &subject.surface,
            &mut subject.interner,
            CompileOptions::default(),
        )
        .unwrap();
        let host = subject.bugs[0].host;
        let func = program.functions.iter().find(|f| f.name == host).unwrap();
        let report = fusion::engine::BugReport {
            source: fusion_pdg::graph::Vertex::new(func.id, fusion_ir::VarId(0)),
            sink: fusion_pdg::graph::Vertex::new(func.id, fusion_ir::VarId(0)),
            verdict: fusion::engine::Feasibility::Feasible,
            path: fusion_pdg::paths::DependencePath::unit(fusion_pdg::graph::Vertex::new(
                func.id,
                fusion_ir::VarId(0),
            )),
        };
        let s = score(&program, CheckKind::NullDeref, &subject.bugs, &[report]);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.true_positives, 0);
    }
}
