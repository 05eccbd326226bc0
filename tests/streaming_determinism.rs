//! Thread count must be invisible in the output.
//!
//! The one driver (`fusion::engine::analyze`) discovers work items on
//! sharded threads and hands whole sink groups to work-stealing solve
//! workers. None of that scheduling may reach the user: for every thread
//! count, with and without the verdict cache, with and without
//! incremental sessions, the reports must be *byte-identical* — same
//! sources, sinks, verdicts, witness paths, in the same order — to the
//! run on one caller-owned engine. This is the contract DESIGN.md
//! ("Analysis pipeline") claims and the CLI's `--threads` relies on.

use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{
    analyze, AnalysisOptions, AnalysisRun, Engines, Feasibility, FeasibilityEngine, Plan,
};
use fusion::graph_solver::FusionSolver;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

/// Several source functions across several sink functions, mixing
/// feasible and infeasible flows (`x * x == 3` has no solution modulo a
/// power of two), so workers have real groups to steal and verdicts are
/// non-trivial.
fn subject() -> (Program, Pdg, Checker) {
    let mut src = String::from("extern fn getpass(); extern fn sendmsg(x);\n");
    for i in 0..6 {
        let lo = i * 2;
        src.push_str(&format!(
            "fn f{i}(flag) {{\n\
               let a = getpass();\n\
               let c = 1; let d = 1; let e = 1;\n\
               if (flag > {lo}) {{ c = a + {i}; }}\n\
               if (flag * flag == 3) {{ d = a + {i}; }}\n\
               if (flag < {hi}) {{ e = a * 2; }}\n\
               sendmsg(c);\n\
               sendmsg(d);\n\
               sendmsg(e);\n\
               return 0;\n\
             }}\n",
            hi = lo + 5,
        ));
    }
    let program = compile(&src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    (program, pdg, Checker::cwe402())
}

/// Everything that reaches the user, in a comparable form.
type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn keys(run: &AnalysisRun) -> Vec<ReportKey> {
    run.reports
        .iter()
        .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
        .collect()
}

fn factory(incremental: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut engine = FusionSolver::new(SolverConfig::default());
        engine.incremental = incremental;
        Box::new(engine)
    }
}

fn run(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    engines: Engines<'_>,
    opts: &AnalysisOptions,
) -> AnalysisRun {
    let set = CheckerSet::single(checker.clone());
    analyze(program, pdg, &set, engines, opts, Plan::default()).into_single()
}

/// Fresh caches per run (each configuration must stand alone), or none.
fn options(use_cache: bool) -> AnalysisOptions {
    if use_cache {
        AnalysisOptions::new()
    } else {
        AnalysisOptions::without_cache()
    }
}

#[test]
fn reports_identical_across_1_to_8_threads() {
    let (program, pdg, checker) = subject();

    for use_cache in [false, true] {
        for incremental in [true, false] {
            // The run on one caller-owned engine is the reference
            // transcript.
            let mut reference_engine = FusionSolver::new(SolverConfig::default());
            reference_engine.incremental = incremental;
            let reference = run(
                &program,
                &pdg,
                &checker,
                Engines::One(&mut reference_engine),
                &options(use_cache),
            );
            assert!(!reference.reports.is_empty(), "subject must report");
            assert!(reference.suppressed > 0, "subject must suppress");
            let want = keys(&reference);

            for threads in 1..=8 {
                let threaded = run(
                    &program,
                    &pdg,
                    &checker,
                    Engines::PerThread(&factory(incremental), threads),
                    &options(use_cache),
                );
                assert_eq!(
                    keys(&threaded),
                    want,
                    "diverged at threads={threads} cache={use_cache} \
                     incremental={incremental}"
                );
                assert_eq!(threaded.suppressed, reference.suppressed);
                assert_eq!(threaded.candidates, reference.candidates);
            }
        }
    }
}

#[test]
fn one_thread_matches_the_caller_engine_memory_peak() {
    // One factory-built engine runs inline, so the categorized memory
    // peaks must be *equal* to a run on a caller-owned engine, not
    // merely close.
    let (program, pdg, checker) = subject();

    let mut engine = FusionSolver::new(SolverConfig::default());
    let seq = run(
        &program,
        &pdg,
        &checker,
        Engines::One(&mut engine),
        &AnalysisOptions::new(),
    );
    let one_thread = run(
        &program,
        &pdg,
        &checker,
        Engines::PerThread(&factory(true), 1),
        &AnalysisOptions::new(),
    );

    assert_eq!(keys(&seq), keys(&one_thread));
    assert_eq!(
        seq.peak_memory, one_thread.peak_memory,
        "one factory engine must account memory exactly like a caller-owned one"
    );
}

#[test]
fn slice_memo_is_shared_across_runs() {
    // `AnalysisOptions::new()` carries one shared slice cache; a second
    // run over the same program with a *fresh* verdict cache re-issues
    // every query but must answer every closure request from the memo.
    let (program, pdg, checker) = subject();
    let opts = AnalysisOptions::new();
    let fresh_verdicts = || AnalysisOptions {
        cache: Some(Default::default()),
        ..opts.clone()
    };

    let cold = run(
        &program,
        &pdg,
        &checker,
        Engines::PerThread(&factory(true), 4),
        &fresh_verdicts(),
    );
    assert!(
        cold.stages.slices_computed > 0,
        "cold run must compute closures"
    );
    assert!(cold.stages.discovery_shards >= 1);

    let warm = run(
        &program,
        &pdg,
        &checker,
        Engines::PerThread(&factory(true), 4),
        &fresh_verdicts(),
    );
    assert_eq!(keys(&cold), keys(&warm));
    assert!(warm.queries > 0, "fresh verdict cache must re-query");
    assert_eq!(
        warm.stages.slices_computed, 0,
        "warm run must answer every closure request from the shared memo \
         (reused {} of {} queries)",
        warm.stages.slices_reused, warm.queries
    );
    assert!(warm.stages.slices_reused > 0);
    assert!(warm.slice.hits > 0, "slice-cache hits must be observable");
}

#[test]
fn binding_budgets_are_thread_invariant() {
    // Tiny discovery budgets cut sources short and drop alternative
    // paths; where the cut falls depends only on the item, never on the
    // schedule, so every thread count must report the same bytes and
    // take the same discovery steps.
    let (program, pdg, checker) = subject();
    let roomy = run(
        &program,
        &pdg,
        &checker,
        Engines::PerThread(&factory(true), 1),
        &AnalysisOptions::new(),
    );
    for (max_steps_per_source, max_paths_per_pair) in [(2, 1), (4, 1), (6, 2)] {
        let opts = || {
            let mut o = AnalysisOptions::new();
            o.propagate.max_steps_per_source = max_steps_per_source;
            o.propagate.max_paths_per_pair = max_paths_per_pair;
            o
        };
        let reference = run(
            &program,
            &pdg,
            &checker,
            Engines::PerThread(&factory(true), 1),
            &opts(),
        );
        let budget = format!("steps={max_steps_per_source} paths={max_paths_per_pair}");
        assert!(
            reference.stages.discovery_steps < roomy.stages.discovery_steps,
            "the budget must bind ({budget})"
        );
        for threads in [2, 4, 8] {
            let threaded = run(
                &program,
                &pdg,
                &checker,
                Engines::PerThread(&factory(true), threads),
                &opts(),
            );
            assert_eq!(
                keys(&threaded),
                keys(&reference),
                "threads={threads} {budget}"
            );
            assert_eq!(threaded.suppressed, reference.suppressed, "{budget}");
            assert_eq!(threaded.candidates, reference.candidates, "{budget}");
            assert_eq!(
                threaded.stages.discovery_steps, reference.stages.discovery_steps,
                "threads={threads} {budget}"
            );
        }
    }
}
