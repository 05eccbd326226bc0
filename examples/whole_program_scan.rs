//! Whole-program scan: generate an industrial-shaped synthetic project and
//! scan it with Fusion and with the conventional (Pinpoint-style) design,
//! comparing cost — a miniature of the paper's headline experiment.
//!
//! ```sh
//! cargo run --release --example whole_program_scan [scale]
//! ```
//!
//! `scale` is the fraction of mysql's paper size to generate (default
//! 0.002 ≈ 4 K statements).

use fusion::checkers::{CheckKind, Checker, CheckerSet};
use fusion::engine::{analyze, AnalysisOptions, Engines, FeasibilityEngine, Plan};
use fusion::graph_solver::FusionSolver;
use fusion_baselines::PinpointEngine;
use fusion_ir::{compile_ast, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, score, SubjectSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.002);
    let spec = SubjectSpec::by_name("mysql").expect("subject exists");
    let cfg = spec.gen_config(scale);
    let mut subject = generate(&cfg);
    let program = compile_ast(
        &subject.surface,
        &mut subject.interner,
        CompileOptions::default(),
    )?;
    let pdg = Pdg::build(&program);
    println!(
        "generated `{}`-shaped subject at scale {scale}: {} functions, {} vertices, {} edges, {} seeded bugs",
        spec.name,
        program.functions.len(),
        pdg.stats().vertices,
        pdg.stats().edges(),
        subject.bugs.len()
    );

    let checker = Checker::null_deref();
    let budget = SolverConfig {
        timeout: Some(std::time::Duration::from_secs(10)),
        ..Default::default()
    };

    let mut fusion_engine = FusionSolver::new(budget);
    let fusion_run = analyze(
        &program,
        &pdg,
        &CheckerSet::single(checker.clone()),
        Engines::One(&mut fusion_engine),
        &AnalysisOptions::new(),
        Plan::default(),
    )
    .into_single();
    let mut pinpoint_engine = PinpointEngine::new(budget);
    let pinpoint_run = analyze(
        &program,
        &pdg,
        &CheckerSet::single(checker.clone()),
        Engines::One(&mut pinpoint_engine),
        &AnalysisOptions::new(),
        Plan::default(),
    )
    .into_single();

    for run in [&fusion_run, &pinpoint_run] {
        let s = score(&program, CheckKind::NullDeref, &subject.bugs, &run.reports);
        println!(
            "{:>10}: {:>8.1} ms, {:>8} KiB peak | {} reports ({} TP, {} FP, {} missed)",
            run.engine,
            run.total_time().as_secs_f64() * 1e3,
            run.peak_memory / 1024,
            run.reports.len(),
            s.true_positives,
            s.false_positives,
            s.missed,
        );
    }
    assert_eq!(
        fusion_run.reports.len(),
        pinpoint_run.reports.len(),
        "same precision"
    );
    let _ = fusion_engine.records();
    println!(
        "\nsame reports from both designs; fusion retained no path conditions, pinpoint cached {} KiB of summaries/conditions",
        (pinpoint_engine.memory().current(fusion::memory::Category::Summaries)
            + pinpoint_engine.memory().current(fusion::memory::Category::PathConditions))
            / 1024
    );
    Ok(())
}
