//! Quickstart: find a path-sensitive null dereference in a small program.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The program below is the paper's Fig. 1 example: a null pointer escapes
//! `foo` only when `bar(a) < bar(b)`, a condition whose conventional path
//! condition instantiates `bar`'s return-value condition at both call
//! sites. Fusion decides it on the dependence graph without cloning `bar`
//! at all.

use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{analyze, AnalysisOptions, Engines, Plan};
use fusion::graph_solver::FusionSolver;
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

const PROGRAM: &str = r#"
extern fn deref(p);

fn bar(x) {
    let y = x * 2;
    let z = y;
    return z;
}

fn foo(a, b) {
    let p = null;
    let c = bar(a);
    let d = bar(b);
    let r = 1;
    if (c < d) { r = p; }    // feasible: pick any a < b
    deref(r);
    return 0;
}

fn safe(x) {
    let p = null;
    let r = 1;
    if (x > 5) {
        if (x < 3) { r = p; }  // infeasible: x > 5 && x < 3
    }
    deref(r);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = compile(PROGRAM, CompileOptions::default())?;
    let pdg = Pdg::build(&program);
    println!(
        "compiled {} functions, {} PDG vertices, {} edges",
        program.functions.len(),
        pdg.stats().vertices,
        pdg.stats().edges()
    );

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

    println!(
        "\n{} candidate flow(s): {} reported, {} suppressed as infeasible",
        run.candidates,
        run.reports.len(),
        run.suppressed
    );
    for report in &run.reports {
        let func = program.func(report.source.func);
        println!(
            "  BUG ({:?}): null born at {} in `{}` reaches deref at {} — witness path has {} vertices",
            report.verdict,
            report.source.var,
            program.name(func.name),
            report.sink.var,
            report.path.nodes.len(),
        );
    }
    assert_eq!(
        run.reports.len(),
        1,
        "exactly the feasible flow is reported"
    );
    assert_eq!(
        run.suppressed, 1,
        "the contradictory guard is proven infeasible"
    );
    println!("\nthe `safe` function's candidate was suppressed: x > 5 && x < 3 is unsat.");
    Ok(())
}
