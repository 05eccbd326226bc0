//! Taint audit: the paper's two CWE checkers on a realistic snippet.
//!
//! ```sh
//! cargo run --example taint_audit
//! ```
//!
//! CWE-23 (relative path traversal): external input reaching `fopen`.
//! CWE-402 (private resource transmission): secrets reaching `sendmsg`.
//! Both are modeled as data-dependence paths whose feasibility Fusion
//! checks on the dependence graph — note how the sanitized path is
//! suppressed because its guard cannot be true.

use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{analyze, AnalysisOptions, Engines, Plan};
use fusion::graph_solver::FusionSolver;
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

const PROGRAM: &str = r#"
extern fn gets();
extern fn fopen(path);
extern fn getpass();
extern fn sendmsg(data);
extern fn log_hash(x);

fn normalize(path) {
    // Pretend-normalization keeps the taint (string ops modeled as arithmetic).
    let trimmed = path + 1;
    return trimmed;
}

fn serve_request(flags) {
    let input = gets();
    let path = normalize(input);
    // CWE-23: reachable whenever the low bit of flags is zero.
    if ((flags & 1) == 0) {
        fopen(path);
    }
    return 0;
}

fn audit_password(flags) {
    let password = getpass();
    let digest = password * 31 + 7;
    // Safe-looking path that is actually impossible: 2x == 2y + 1.
    if (flags * 2 == flags * 2 + 1) {
        sendmsg(digest);       // CWE-402 candidate — infeasible guard
    }
    log_hash(digest);
    if (flags > 100) {
        sendmsg(password);     // CWE-402 — feasible
    }
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = compile(PROGRAM, CompileOptions::default())?;
    let pdg = Pdg::build(&program);
    for checker in [Checker::cwe23(), Checker::cwe402()] {
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
        println!(
            "{}: {} candidate(s) → {} reported, {} suppressed",
            checker.kind,
            run.candidates,
            run.reports.len(),
            run.suppressed
        );
        for report in &run.reports {
            let src_fn = program.name(program.func(report.source.func).name);
            println!(
                "  flow from `{}` crosses {} dependence-graph vertices to the sink",
                src_fn,
                report.path.nodes.len()
            );
        }
    }
    Ok(())
}
