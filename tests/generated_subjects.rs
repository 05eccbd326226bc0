//! Integration tests over generated subjects: precision agreement between
//! all engines, perfect scores against seeded ground truth, and the
//! memory/caching contracts of the fused design.

use fusion::checkers::{CheckKind, Checker, CheckerSet};
use fusion::engine::{analyze, AnalysisOptions, Engines, FeasibilityEngine, Plan};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion::memory::Category;
use fusion_baselines::PinpointEngine;
use fusion_ir::{compile_ast, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, score, GenConfig, SUBJECTS};

fn build(
    seed: u64,
    functions: usize,
) -> (fusion_ir::Program, Pdg, Vec<fusion_workloads::SeededBug>) {
    let cfg = GenConfig {
        seed,
        functions,
        ..Default::default()
    };
    let mut subject = generate(&cfg);
    let program = compile_ast(
        &subject.surface,
        &mut subject.interner,
        CompileOptions::default(),
    )
    .expect("compile");
    let pdg = Pdg::build(&program);
    (program, pdg, subject.bugs)
}

#[test]
fn three_engines_agree_across_seeds_and_checkers() {
    for seed in [7u64, 21, 99] {
        let (program, pdg, _) = build(seed, 16);
        for checker in [Checker::null_deref(), Checker::cwe23(), Checker::cwe402()] {
            let mut results = Vec::new();
            let engines: Vec<Box<dyn FeasibilityEngine>> = vec![
                Box::new(FusionSolver::new(SolverConfig::default())),
                Box::new(UnoptimizedGraphSolver::new(SolverConfig::default())),
                Box::new(PinpointEngine::new(SolverConfig::default())),
            ];
            for mut e in engines {
                let run = analyze(
                    &program,
                    &pdg,
                    &CheckerSet::single(checker.clone()),
                    Engines::One(e.as_mut()),
                    &AnalysisOptions::new(),
                    Plan::default(),
                )
                .into_single();
                let mut keys: Vec<_> = run.reports.iter().map(|r| (r.source, r.sink)).collect();
                keys.sort();
                results.push((run.engine, keys, run.suppressed));
            }
            for w in results.windows(2) {
                assert_eq!(
                    w[0].1, w[1].1,
                    "seed {seed} {}: {} vs {}",
                    checker.kind, w[0].0, w[1].0
                );
                assert_eq!(w[0].2, w[1].2, "suppressed differ at seed {seed}");
            }
        }
    }
}

#[test]
fn perfect_scores_on_all_checkers() {
    let (program, pdg, bugs) = build(0xF051_0001, 24);
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
        let s = score(&program, kind, &bugs, &run.reports);
        assert_eq!(s.false_positives, 0, "{kind}");
        assert_eq!(s.missed, 0, "{kind}");
    }
}

#[test]
fn fusion_never_retains_path_conditions() {
    let (program, pdg, _) = build(5, 20);
    let mut engine = FusionSolver::new(SolverConfig::default());
    let _ = analyze(
        &program,
        &pdg,
        &CheckerSet::single(Checker::null_deref()),
        Engines::One(&mut engine),
        &AnalysisOptions::new(),
        Plan::default(),
    )
    .into_single();
    assert_eq!(engine.memory().current(Category::PathConditions), 0);
    assert_eq!(engine.memory().current(Category::Summaries), 0);
}

#[test]
fn pinpoint_retains_conditions_and_summaries() {
    let (program, pdg, _) = build(5, 20);
    let mut engine = PinpointEngine::new(SolverConfig::default());
    let run = analyze(
        &program,
        &pdg,
        &CheckerSet::single(Checker::null_deref()),
        Engines::One(&mut engine),
        &AnalysisOptions::new(),
        Plan::default(),
    )
    .into_single();
    assert!(run.queries > 0);
    assert!(engine.memory().current(Category::PathConditions) > 0);
    assert!(engine.memory().current(Category::Summaries) > 0);
}

#[test]
fn subject_specs_compile_and_find_seeds() {
    // Smoke the three smallest and one large subject at tiny scale.
    for spec in [&SUBJECTS[0], &SUBJECTS[2], &SUBJECTS[12]] {
        let cfg = spec.gen_config(0.0008);
        let mut subject = generate(&cfg);
        let program = compile_ast(
            &subject.surface,
            &mut subject.interner,
            CompileOptions::default(),
        )
        .expect("compile");
        let pdg = Pdg::build(&program);
        let mut engine = FusionSolver::new(SolverConfig::default());
        let run = analyze(
            &program,
            &pdg,
            &CheckerSet::single(Checker::null_deref()),
            Engines::One(&mut engine),
            &AnalysisOptions::new(),
            Plan::default(),
        )
        .into_single();
        let s = score(&program, CheckKind::NullDeref, &subject.bugs, &run.reports);
        assert_eq!(s.false_positives, 0, "{}", spec.name);
        assert_eq!(s.missed, 0, "{}", spec.name);
    }
}
