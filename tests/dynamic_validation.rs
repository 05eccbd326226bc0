//! Dynamic cross-validation: the static verdicts must agree with actual
//! executions.
//!
//! The programs are crafted so the only way `deref` can receive the value
//! 0 is through the null source (all other values are provably nonzero).
//! Brute-forcing inputs through the reference interpreter then gives
//! ground truth: a candidate is truly feasible iff some input makes the
//! trace contain `deref(0)`.

use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{analyze, AnalysisOptions, Engines, Feasibility, Plan};
use fusion::graph_solver::FusionSolver;
use fusion_ir::interp::eval_core;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

/// Does any input in the sampled space make `f(x)` call `deref(0)`?
fn dynamically_triggers(program: &Program, func: &str, inputs: impl Iterator<Item = u32>) -> bool {
    let f = program.func_by_name(func).expect("function exists");
    let deref_sym = program.interner.lookup("deref").expect("deref declared");
    for x in inputs {
        let (_, trace) = eval_core(program, f.id, &[x], 1_000_000).expect("evaluates");
        if trace
            .extern_calls
            .iter()
            .any(|(name, args)| *name == deref_sym && args == &[0])
        {
            return true;
        }
    }
    false
}

fn static_verdict(program: &Program, pdg: &Pdg) -> Vec<Feasibility> {
    let mut engine = FusionSolver::new(SolverConfig::default());
    let run = analyze(
        program,
        pdg,
        &CheckerSet::single(Checker::null_deref()),
        Engines::One(&mut engine),
        &AnalysisOptions::new(),
        Plan::default(),
    )
    .into_single();
    run.reports.iter().map(|r| r.verdict).collect()
}

/// Each case: (source text, the input range to brute force).
/// Non-null values flowing to `deref` are kept nonzero by construction.
fn check_case(src: &str, range: std::ops::Range<u32>, expect_feasible: bool) {
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let verdicts = static_verdict(&program, &pdg);
    let dynamic = dynamically_triggers(&program, "f", range);
    if expect_feasible {
        assert_eq!(verdicts, vec![Feasibility::Feasible], "static must report");
        assert!(dynamic, "a concrete witness must exist");
    } else {
        assert!(
            verdicts.is_empty(),
            "static must suppress, got {verdicts:?}"
        );
        assert!(!dynamic, "no input may trigger the bug");
    }
}

#[test]
fn feasible_equality_guard_has_witness() {
    check_case(
        "extern fn deref(p);\n\
         fn f(x) { let q = null; let r = 1; if (x == 37) { r = q; } deref(r); return 0; }",
        0..64,
        true,
    );
}

#[test]
fn parity_guard_never_triggers() {
    check_case(
        "extern fn deref(p);\n\
         fn f(x) { let q = null; let r = 1; if (x * 2 == 7) { r = q; } deref(r); return 0; }",
        0..4096,
        false,
    );
}

#[test]
fn range_contradiction_never_triggers() {
    check_case(
        "extern fn deref(p);\n\
         fn f(x) { let q = null; let r = 1; if (x > 5) { if (x < 3) { r = q; } } deref(r); return 0; }",
        0..4096,
        false,
    );
}

#[test]
fn interprocedural_witness_exists() {
    check_case(
        "extern fn deref(p);\n\
         fn twice(v) { return v * 2; }\n\
         fn f(x) { let q = null; let r = 1; if (twice(x) == 14) { r = q; } deref(r); return 0; }",
        0..64,
        true,
    );
}

#[test]
fn masked_guard_never_triggers() {
    check_case(
        "extern fn deref(p);\n\
         fn f(x) { let q = null; let r = 1; if ((x & 3) == 5) { r = q; } deref(r); return 0; }",
        0..4096,
        false,
    );
}

#[test]
fn loop_unrolled_guard_matches_bounded_semantics() {
    // After two unrollings, i can be 0, 1 or 2; the guard i == 2 is
    // reachable with n >= 2 — and the interpreter's bounded semantics
    // agree exactly.
    check_case(
        "extern fn deref(p);\n\
         fn f(n) { let q = null; let r = 1; let i = 0;\n\
           while (i < n) { i = i + 1; }\n\
           if (i == 2) { r = q; } deref(r); return 0; }",
        0..8,
        true,
    );
}

#[test]
fn bitwise_guard_has_witness() {
    check_case(
        "extern fn deref(p);\n\
         fn f(x) { let q = null; let r = 1; if ((x & 7) == 5) { r = q; } deref(r); return 0; }",
        0..64,
        true,
    );
}

#[test]
fn shift_guard_never_triggers() {
    // (x << 1) is always even; equality with 9 is impossible.
    check_case(
        "extern fn deref(p);\n\
         fn f(x) { let q = null; let r = 1; if ((x << 1) == 9) { r = q; } deref(r); return 0; }",
        0..4096,
        false,
    );
}

#[test]
fn callee_guard_contradiction_never_triggers() {
    check_case(
        "extern fn deref(p);\n\
         fn make(x) { let q = null; let r = 1; if (x < 5) { r = q; } return r; }\n\
         fn f(a) { let r = 1; if (a > 10) { r = make(a); } deref(r); return 0; }",
        0..4096,
        false,
    );
}

#[test]
fn null_through_identity_chain_witness() {
    check_case(
        "extern fn deref(p);\n\
         fn id(v) { return v; }\n\
         fn f(x) { let q = null; let held = id(id(id(q))); let r = 1;\n\
           if (x > 100) { r = held; } deref(r); return 0; }",
        0..256,
        true,
    );
}
