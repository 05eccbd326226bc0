//! `absint_bench` — the abstract-interpretation triage perf harness
//! (`BENCH_absint.json`).
//!
//! One comparison over a synthetic corpus: the fused multi-client scan
//! **with** abstract-interpretation triage + solver seeding
//! (`AnalysisOptions::absint = true`, the default) against the same scan
//! **without** it (the CLI's `--no-absint`). Both sides run the one
//! driver at the same thread count over the same program,
//! and their per-checker reports are asserted byte-identical — triage is
//! refute-only, so it may only make the scan cheaper, never different.
//!
//! The corpus mixes three guard populations:
//!
//! * **parity-refutable** — `x * 2 == odd` can never hold; the interval ×
//!   known-bits domain refutes these paths before any slice, translation,
//!   or solver work, and several functions carry *only* such guards so
//!   their whole sink group (slice closure, solver session) is skipped;
//! * **opaque** — `w == k` through a nonlinear churn function; only the
//!   solver can decide these, so both sides pay the same for them;
//! * **feasible** — `x > k`; reported identically by both sides.
//!
//! Output: `BENCH_absint.json` in the working directory (override with
//! `FUSION_BENCH_OUT`). With `FUSION_BENCH_ENFORCE=1` the process exits
//! non-zero unless triage refuted at least one candidate outright, opened
//! strictly fewer sessions, computed strictly fewer slice closures, and
//! finished within 100% of the untriaged wall — the CI regression gate
//! for the triage layer.

use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze, AnalysisOptions, Engines, FeasibilityEngine, MultiAnalysisRun, Plan,
};
use fusion::graph_solver::FusionSolver;
use fusion_bench::{banner, default_budget, report, scale_from_env};
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;
use std::fmt::Write as _;
use std::time::Instant;

/// Thread count both sides run at.
const THREADS: usize = 4;
/// Wall-clock measurements take the best of this many repetitions.
const ITERS: usize = 3;

/// Synthetic subject with triaged, opaque and feasible flows for all
/// three default checkers.
fn triage_corpus(funcs: usize, per: usize) -> String {
    let mut s = String::from(
        "extern fn deref(p); extern fn gets(); extern fn fopen(p);\n\
         extern fn getpass(); extern fn sendmsg(x);\n",
    );
    for f in 0..funcs {
        let _ = writeln!(
            s,
            "fn churn{f}(a, b) {{ let t = a * b; let u = t * t + a; \
             let v = u * b + t; return v; }}"
        );
        // Mixed function: parity-refutable, opaque, and feasible guards
        // around all three checkers' flows.
        let _ = writeln!(s, "fn mixed{f}(x, y) {{");
        let _ = writeln!(s, "  let w = churn{f}(x, y);");
        let _ = writeln!(s, "  let q = null; let t = gets(); let p = getpass();");
        for k in 0..per {
            let odd = 2 * k + 5;
            let tgt = 77 + 2 * k + f;
            let _ = writeln!(
                s,
                "  let a{k} = 1; if (x * 2 == {odd}) {{ a{k} = q; }} deref(a{k});"
            );
            let _ = writeln!(
                s,
                "  let b{k} = 1; if (w == {tgt}) {{ b{k} = t + {k}; }} fopen(b{k});"
            );
            let _ = writeln!(
                s,
                "  let c{k} = 1; if (x > {k}) {{ c{k} = p * 2; }} sendmsg(c{k});"
            );
            let _ = writeln!(
                s,
                "  let n{k} = 1; if (y > {k}) {{ n{k} = q; }} deref(n{k});"
            );
        }
        let _ = writeln!(s, "  return 0;\n}}");
        // Parity-only function: every candidate path here is refuted by
        // the known-bits domain, so with triage on this sink group does
        // zero slice/translate/solve work and its session never opens.
        let _ = writeln!(s, "fn parityonly{f}(x) {{");
        let _ = writeln!(s, "  let q = null; let t = gets();");
        for k in 0..per {
            let odd = 2 * k + 3;
            let _ = writeln!(
                s,
                "  let a{k} = 1; if (x * 2 == {odd}) {{ a{k} = q; }} deref(a{k});"
            );
            let _ = writeln!(
                s,
                "  let b{k} = 1; if (x * 4 == {odd}) {{ b{k} = t; }} fopen(b{k});"
            );
        }
        let _ = writeln!(s, "  return 0;\n}}");
    }
    s
}

fn factory() -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    let budget = default_budget();
    move || Box::new(FusionSolver::new(budget)) as Box<dyn FeasibilityEngine>
}

type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    fusion::engine::Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn breakdown_keys(run: &MultiAnalysisRun) -> Vec<Vec<ReportKey>> {
    run.checkers
        .iter()
        .map(|b| {
            b.reports
                .iter()
                .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
                .collect()
        })
        .collect()
}

/// One measured side: best wall plus the counters of the best iteration.
#[derive(Default)]
struct Side {
    wall_us: u128,
    sessions: u64,
    slices: u64,
    queries: usize,
    triaged_paths: u64,
    triaged_candidates: u64,
    sessions_skipped: u64,
    slices_skipped: u64,
    absint_refutes: u64,
}

fn measure(
    program: &fusion_ir::Program,
    pdg: &Pdg,
    set: &CheckerSet,
    absint: bool,
    want: &[Vec<ReportKey>],
    identical: &mut bool,
) -> Side {
    let make = factory();
    let mut best = Side {
        wall_us: u128::MAX,
        ..Default::default()
    };
    for _ in 0..ITERS {
        let opts = AnalysisOptions {
            absint,
            ..AnalysisOptions::new()
        };
        let t = Instant::now();
        let run = analyze(
            program,
            pdg,
            set,
            Engines::PerThread(&make, THREADS),
            &opts,
            Plan::default(),
        );
        let wall = t.elapsed().as_micros();
        if breakdown_keys(&run) != want {
            *identical = false;
        }
        if wall < best.wall_us {
            best = Side {
                wall_us: wall,
                sessions: run.stages.sessions_opened,
                slices: run.stages.slices_computed,
                queries: run.checkers.iter().map(|b| b.queries).sum(),
                triaged_paths: run.stages.triaged_paths,
                triaged_candidates: run.stages.triaged_candidates,
                sessions_skipped: run.stages.sessions_skipped,
                slices_skipped: run.stages.slices_skipped,
                absint_refutes: run.stages.absint_refutes,
            };
        }
    }
    best
}

fn main() {
    banner(
        "absint_bench: abstract-interpretation triage vs --no-absint",
        "same corpus, same threads; reports asserted byte-identical",
    );
    let budget = default_budget();
    let src = triage_corpus(5, 6);
    let program = compile(&src, CompileOptions::default()).expect("corpus compiles");
    let pdg = Pdg::build(&program);
    let set = CheckerSet::all();

    // Reference transcript: sequential, triage off — the pure solver
    // pipeline the triaged runs must reproduce byte-for-byte.
    let mut seq_engine = FusionSolver::new(budget);
    let mut seq_opts = AnalysisOptions::new();
    seq_opts.absint = false;
    let reference = analyze(
        &program,
        &pdg,
        &set,
        Engines::One(&mut seq_engine),
        &seq_opts,
        Plan::default(),
    );
    let want = breakdown_keys(&reference);
    assert!(
        want.iter().all(|k| !k.is_empty()),
        "every checker must report"
    );

    let mut identical = true;
    let off = measure(&program, &pdg, &set, false, &want, &mut identical);
    let on = measure(&program, &pdg, &set, true, &want, &mut identical);
    assert!(
        identical,
        "triage on/off reports must be byte-identical to the sequential reference"
    );

    let pct = if off.wall_us == 0 {
        0.0
    } else {
        100.0 * on.wall_us as f64 / off.wall_us as f64
    };

    println!("--------------------------------------------------------------");
    println!(
        "wall:     off {:>9.3}ms   on {:>9.3}ms   ({pct:.1}% of untriaged)",
        off.wall_us as f64 / 1000.0,
        on.wall_us as f64 / 1000.0,
    );
    println!(
        "queries:  off {} -> on {}   ({} path(s) triaged, {} candidate(s) fully refuted)",
        off.queries, on.queries, on.triaged_paths, on.triaged_candidates
    );
    println!(
        "sessions: off {} opened -> on {} opened ({} skipped)",
        off.sessions, on.sessions, on.sessions_skipped
    );
    println!(
        "slices:   off {} computed -> on {} computed ({} skipped); \
         {} seeded solver refutation(s)",
        off.slices, on.slices, on.slices_skipped, on.absint_refutes
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {THREADS},\n  \"iters\": {ITERS},\n  \
         \"untriaged_wall_us\": {},\n  \"triaged_wall_us\": {},\n  \
         \"triaged_pct_of_untriaged\": {pct:.2},\n  \
         \"untriaged_queries\": {},\n  \"triaged_queries\": {},\n  \
         \"triaged_paths\": {},\n  \"triaged_candidates\": {},\n  \
         \"untriaged_sessions_opened\": {},\n  \"triaged_sessions_opened\": {},\n  \
         \"sessions_skipped\": {},\n  \
         \"untriaged_slices_computed\": {},\n  \"triaged_slices_computed\": {},\n  \
         \"slices_skipped\": {},\n  \"absint_refutes\": {},\n  \
         \"reports_identical\": {identical}\n}}\n",
        scale_from_env(),
        off.wall_us,
        on.wall_us,
        off.queries,
        on.queries,
        on.triaged_paths,
        on.triaged_candidates,
        off.sessions,
        on.sessions,
        on.sessions_skipped,
        off.slices,
        on.slices,
        on.slices_skipped,
        on.absint_refutes,
    );
    report::write("BENCH_absint.json", &json);

    // CI gates: triage must avoid real work — at least one candidate
    // refuted outright, strictly fewer sessions and slice closures,
    // and no wall regression (≤ 100% of the untriaged run).
    let gate = report::Gate::from_env();
    gate.require(on.triaged_candidates > 0, || {
        "triage refuted no candidates".into()
    });
    gate.require(on.sessions < off.sessions, || {
        format!(
            "triaged run opened {} sessions, untriaged opened {}",
            on.sessions, off.sessions
        )
    });
    gate.require(on.slices < off.slices, || {
        format!(
            "triaged run computed {} slice closures, untriaged computed {}",
            on.slices, off.slices
        )
    });
    gate.require(on.wall_us <= off.wall_us, || {
        format!(
            "triaged wall {}us exceeds untriaged wall {}us",
            on.wall_us, off.wall_us
        )
    });
    gate.pass(
        "triage refuted candidates, opened fewer sessions, \
         computed fewer slices, and did not regress wall",
    );
}
