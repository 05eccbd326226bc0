//! `extract_bench` — the e-graph extraction harness (`BENCH_extract.json`).
//!
//! Shaped after the extraction-gym benchmark protocol: a fixed corpus of
//! solver queries is replayed once per extraction strategy, and every
//! strategy's row reports the same columns (preprocessed DAG size — the
//! terms that reach bit-blasting — CNF clauses, verdict tallies, best-of
//! wall) so strategies are directly comparable. The strategy rows are:
//!
//! * **no-egraph** — the baseline: equality saturation disabled, the
//!   preprocessor alone simplifies each query;
//! * one row per [`ExtractorKind`] — saturate each local condition in the
//!   e-graph, lower it back with that cost-based extractor.
//!
//! Verdicts are asserted identical across all strategies per query, and an
//! end-to-end scan (egraph on vs off) must produce byte-identical reports —
//! simplification may never change findings, only the work needed to reach
//! them (§3.2.3; conditions are simplified per fragment, never cached as
//! path conditions, §3.2.2).
//!
//! Output: `BENCH_extract.json` in the working directory (override with
//! `FUSION_BENCH_OUT`). With `FUSION_BENCH_ENFORCE=1` the process exits
//! non-zero unless the default strategy bit-blasts strictly fewer terms
//! AND strictly fewer CNF clauses than the baseline, all verdicts and
//! reports agree, and wall stays within 110% of the baseline.

use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{analyze, AnalysisOptions, Engines, Feasibility, Plan};
use fusion::graph_solver::FusionSolver;
use fusion::propagate::{discover, Candidate, PropagateOptions};
use fusion_bench::{banner, default_budget, report, scale_from_env};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_pdg::slice::compute_slice;
use fusion_pdg::translate::{translate, TranslateOptions};
use fusion_smt::solver::{smt_solve, SatResult, SolverConfig};
use fusion_smt::term::TermPool;
use fusion_smt::{EGraphConfig, ExtractorKind};
use std::fmt::Write as _;
use std::time::Instant;

/// Best-of iterations for the wall measurement.
const ITERS: usize = 3;

/// Aggregate counters for one extraction strategy over the whole corpus.
#[derive(Debug, Default, Clone, Copy)]
struct StrategyTotals {
    wall_us: u128,
    size_before: u64,
    size_after: u64,
    cnf_clauses: u64,
    queries: u64,
    sat: u64,
    unsat: u64,
    unknown: u64,
    egraph_classes: u64,
    egraph_rewrites: u64,
    egraph_saturated: u64,
    egraph_cap_hits: u64,
}

/// The Fig. 1 running example.
const FIG1: &str = "extern fn deref(p);\n\
    fn bar(x) { let y = x * 2; let z = y; return z; }\n\
    fn foo(a, b) {\n\
      let pp = null;\n\
      let c = bar(a);\n\
      let d = bar(b);\n\
      let r = 1;\n\
      if (c < d) { r = pp; }\n\
      deref(r);\n\
      return 0;\n\
    }";

/// Guards with algebraic redundancy only equality saturation removes.
/// The classical pipeline already folds constants, propagates equalities,
/// and Gauss-eliminates anything *linear* — so the wins here are all
/// nonlinear: the same product built under two associations converges to
/// one e-class (one multiplier blasted instead of two), and multiplies by
/// small non-power-of-two constants decompose into sums of shifts
/// (popcount−1 adders instead of a w-step multiplier). Parity guards
/// keep the refutation path honest: their candidates must stay suppressed
/// with the e-graph on.
fn algebra_source(funcs: usize) -> String {
    let mut s = String::from("extern fn deref(p);\n");
    for f in 0..funcs {
        let _ = writeln!(s, "fn alg{f}(x, y, z) {{");
        let k1 = 40 + f;
        let k2 = 77 + 2 * f;
        let parity = 7 + 2 * f;
        // Same nonlinear product, two associations: (x·y)·z vs x·(y·z).
        let _ = writeln!(s, "  let p = x * y * z;");
        let _ = writeln!(s, "  let t = y * z;");
        let _ = writeln!(s, "  let q = x * t;");
        let _ = writeln!(
            s,
            "  let q0 = null; let r0 = 1; \
             if (p + 5 == q + {k1}) {{ r0 = q0; }} deref(r0);"
        );
        // Constant multiply with popcount 2: ×6 = (·<<2) + (·<<1).
        let _ = writeln!(
            s,
            "  let q1 = null; let r1 = 1; \
             if (x * 6 + y == {k2}) {{ r1 = q1; }} deref(r1);"
        );
        // Parity refutation: 4x is even, 2x + odd is odd.
        let _ = writeln!(
            s,
            "  let q2 = null; let r2 = 1; \
             if (x * 4 + 0 == x + x + {parity}) {{ r2 = q2; }} deref(r2);"
        );
        let _ = writeln!(s, "  return 0;\n}}");
    }
    s
}

/// One corpus entry: a compiled program, its PDG, and its query stream
/// (every path of every candidate, discovery order).
struct Entry {
    name: &'static str,
    program: Program,
    pdg: Pdg,
    candidates: Vec<Candidate>,
}

fn corpus() -> Vec<Entry> {
    let checker = Checker::null_deref();
    let mut entries = Vec::new();
    let mut push_src = |name: &'static str, src: &str| {
        let program = compile(src, CompileOptions::default()).expect("corpus compiles");
        let pdg = Pdg::build(&program);
        let candidates = discover(&program, &pdg, &checker, &PropagateOptions::default());
        entries.push(Entry {
            name,
            program,
            pdg,
            candidates,
        });
    };
    push_src("fig1", FIG1);
    let alg = algebra_source(5);
    push_src("algebra", &alg);
    entries
}

/// Replays the full corpus query stream under one solver configuration.
/// Counters come from a single pass; wall is best-of-`ITERS` passes.
fn run_strategy(entries: &[Entry], budget: &SolverConfig) -> (StrategyTotals, Vec<SatResult>) {
    let opts = TranslateOptions::default();
    let mut totals = StrategyTotals::default();
    let mut verdicts = Vec::new();
    for entry in entries {
        for cand in &entry.candidates {
            for path in &cand.paths {
                let path = std::slice::from_ref(path);
                let slice = compute_slice(&entry.program, &entry.pdg, path);
                let mut pool = TermPool::new();
                let Ok(tr) = translate(&entry.program, &slice, &mut pool, &opts) else {
                    verdicts.push(SatResult::Unknown);
                    continue;
                };
                let (r, stats) = smt_solve(&mut pool, tr.formula, budget);
                totals.size_before += stats.size_before as u64;
                totals.size_after += stats.size_after as u64;
                totals.cnf_clauses += stats.cnf_clauses as u64;
                totals.egraph_classes += stats.egraph.classes;
                totals.egraph_rewrites += stats.egraph.rewrites;
                totals.egraph_saturated += stats.egraph.saturated;
                totals.egraph_cap_hits += stats.egraph.cap_hits;
                totals.queries += 1;
                match r {
                    SatResult::Sat(_) => totals.sat += 1,
                    SatResult::Unsat => totals.unsat += 1,
                    SatResult::Unknown => totals.unknown += 1,
                }
                verdicts.push(r);
            }
        }
    }
    let mut best_us = u128::MAX;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        for entry in entries {
            for cand in &entry.candidates {
                for path in &cand.paths {
                    let path = std::slice::from_ref(path);
                    let slice = compute_slice(&entry.program, &entry.pdg, path);
                    let mut pool = TermPool::new();
                    if let Ok(tr) = translate(&entry.program, &slice, &mut pool, &opts) {
                        let _ = smt_solve(&mut pool, tr.formula, budget);
                    }
                }
            }
        }
        best_us = best_us.min(t0.elapsed().as_micros());
    }
    totals.wall_us = best_us;
    (totals, verdicts)
}

fn budget_with(egraph: EGraphConfig) -> SolverConfig {
    let mut cfg = default_budget();
    cfg.egraph = egraph;
    cfg
}

fn same_verdict(a: &SatResult, b: &SatResult) -> bool {
    matches!(
        (a, b),
        (SatResult::Sat(_), SatResult::Sat(_))
            | (SatResult::Unsat, SatResult::Unsat)
            | (SatResult::Unknown, SatResult::Unknown)
    )
}

fn main() {
    banner(
        "extract_bench: e-graph extraction strategies vs no-egraph baseline",
        "same query stream per strategy; verdicts and scan reports asserted identical",
    );
    let entries = corpus();

    // ---- baseline: equality saturation off ----
    let (off, off_verdicts) = run_strategy(&entries, &budget_with(EGraphConfig::disabled()));

    // ---- one row per extractor ----
    let mut rows: Vec<(&'static str, StrategyTotals)> = vec![("no-egraph", off)];
    let default_kind = ExtractorKind::default();
    let mut default_row = off;
    for kind in ExtractorKind::ALL {
        let eg = EGraphConfig {
            enabled: true,
            extractor: kind,
            ..EGraphConfig::default()
        };
        let (on, on_verdicts) = run_strategy(&entries, &budget_with(eg));
        assert_eq!(off_verdicts.len(), on_verdicts.len(), "stream length drift");
        for (i, (a, b)) in off_verdicts.iter().zip(&on_verdicts).enumerate() {
            assert!(
                same_verdict(a, b),
                "query {i} verdict mismatch: no-egraph={a:?} {}={b:?}",
                kind.name()
            );
        }
        if kind == default_kind {
            default_row = on;
        }
        rows.push((kind.name(), on));
    }

    // ---- end-to-end scan: egraph on vs off must report identically ----
    let checker = Checker::null_deref();
    let mut reports_identical = true;
    for entry in &entries {
        let run_scan = |enabled: bool| {
            let eg = EGraphConfig {
                enabled,
                ..EGraphConfig::default()
            };
            let mut engine = FusionSolver::new(budget_with(eg));
            analyze(
                &entry.program,
                &entry.pdg,
                &CheckerSet::single(checker.clone()),
                Engines::One(&mut engine),
                &AnalysisOptions::without_cache(),
                Plan::default(),
            )
            .into_single()
        };
        let run_on = run_scan(true);
        let run_off = run_scan(false);
        let key =
            |r: &fusion::engine::BugReport| (r.source, r.sink, r.verdict, r.path.nodes.clone());
        let a: Vec<_> = run_on.reports.iter().map(key).collect();
        let b: Vec<_> = run_off.reports.iter().map(key).collect();
        if a != b || run_on.suppressed != run_off.suppressed {
            reports_identical = false;
        }
        println!(
            "  {:<10} reports={} feasible={} suppressed={} (identical: {})",
            entry.name,
            run_on.reports.len(),
            run_on
                .reports
                .iter()
                .filter(|r| r.verdict == Feasibility::Feasible)
                .count(),
            run_on.suppressed,
            a == b,
        );
    }

    println!("--------------------------------------------------------------");
    for (name, t) in &rows {
        println!(
            "{:<16} wall={:>9.3}ms blasted-terms={:<7} clauses={:<7} \
             classes={:<6} rewrites={:<6} sat/unsat/unk={}/{}/{}",
            name,
            t.wall_us as f64 / 1000.0,
            t.size_after,
            t.cnf_clauses,
            t.egraph_classes,
            t.egraph_rewrites,
            t.sat,
            t.unsat,
            t.unknown,
        );
    }
    let pct = |off: u64, on: u64| -> f64 {
        if off == 0 {
            0.0
        } else {
            100.0 * (off as f64 - on as f64) / off as f64
        }
    };
    println!(
        "default ({}): blasted-terms -{:.1}% | clauses -{:.1}% vs no-egraph",
        default_kind.name(),
        pct(off.size_after, default_row.size_after),
        pct(off.cnf_clauses, default_row.cnf_clauses),
    );

    let row_json = |t: &StrategyTotals| -> String {
        format!(
            "{{\"wall_us\": {}, \"size_before\": {}, \"size_after\": {}, \
             \"cnf_clauses\": {}, \"queries\": {}, \"sat\": {}, \"unsat\": {}, \
             \"unknown\": {}, \"egraph_classes\": {}, \"egraph_rewrites\": {}, \
             \"egraph_saturated\": {}, \"egraph_cap_hits\": {}}}",
            t.wall_us,
            t.size_before,
            t.size_after,
            t.cnf_clauses,
            t.queries,
            t.sat,
            t.unsat,
            t.unknown,
            t.egraph_classes,
            t.egraph_rewrites,
            t.egraph_saturated,
            t.egraph_cap_hits,
        )
    };
    let mut strategies = String::new();
    for (i, (name, t)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n    " };
        let _ = write!(strategies, "{sep}{{\"name\": \"{name}\", ");
        let row = row_json(t);
        strategies.push_str(&row[1..]);
    }
    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": 1,\n  \"iters\": {ITERS},\n  \
         \"default_strategy\": \"{}\",\n  \"strategies\": [\n    {strategies}\n  ],\n  \
         \"reduction\": {{\"blasted_terms_pct\": {:.2}, \"clauses_pct\": {:.2}}},\n  \
         \"reports_identical\": {reports_identical}\n}}\n",
        scale_from_env(),
        default_kind.name(),
        pct(off.size_after, default_row.size_after),
        pct(off.cnf_clauses, default_row.cnf_clauses),
    );
    report::write("BENCH_extract.json", &json);

    // CI gates: the default extractor must shrink real work — strictly
    // fewer bit-blasted terms AND strictly fewer CNF clauses than the
    // no-egraph baseline — while the scan reports stay byte-identical
    // and wall stays within 110% of the baseline.
    let gate = report::Gate::from_env();
    gate.require(default_row.size_after < off.size_after, || {
        format!(
            "default extractor bit-blasted {} terms, no-egraph baseline {}",
            default_row.size_after, off.size_after
        )
    });
    gate.require(default_row.cnf_clauses < off.cnf_clauses, || {
        format!(
            "default extractor produced {} CNF clauses, no-egraph baseline {}",
            default_row.cnf_clauses, off.cnf_clauses
        )
    });
    gate.require(reports_identical, || {
        "egraph-on scan reports differ from egraph-off".into()
    });
    gate.require(
        default_row.wall_us as f64 <= off.wall_us as f64 * 1.10,
        || {
            format!(
                "default extractor wall {}us exceeds 110% of no-egraph wall {}us",
                default_row.wall_us, off.wall_us
            )
        },
    );
    gate.pass(
        "default extractor blasted fewer terms and clauses, reports identical, \
         wall within 110% of baseline",
    );
}
