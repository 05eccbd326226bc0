//! Property test: a [`Plan`] that replays and masks work items
//! reproduces the cold report.
//!
//! The one driver decides, per `(checker, source)` work item, whether it
//! runs, replays its recorded outcome, or is masked. On arbitrary
//! generated multi-module programs, with random per-function `owned` and
//! `affected` masks and at 1, 2 and 4 threads, a plan that replays the
//! cold run's outcomes for unaffected items and masks unowned ones must
//! reproduce — byte for byte, in order — the cold report restricted to
//! owned items. Masked items yield no report and no outcome record.

use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze, AnalysisOptions, Engines, Feasibility, FeasibilityEngine, MultiAnalysisRun, Plan,
};
use fusion::graph_solver::FusionSolver;
use fusion::propagate::multi_source_vertices;
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::Link;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate_multi, GenConfig};
use proptest::prelude::*;

/// Everything that reaches the user: checker, source, sink, verdict,
/// witness path and its inter-procedural links.
type ReportKey = (usize, Vertex, Vertex, Feasibility, Vec<Vertex>, Vec<Link>);

/// The run's reports whose source function `keep` admits.
fn keys(run: &MultiAnalysisRun, keep: impl Fn(Vertex) -> bool) -> Vec<ReportKey> {
    run.checkers
        .iter()
        .enumerate()
        .flat_map(|(i, b)| b.reports.iter().map(move |r| (i, r)))
        .filter(|(_, r)| keep(r.source))
        .map(|(i, r)| {
            (
                i,
                r.source,
                r.sink,
                r.verdict,
                r.path.nodes.clone(),
                r.path.links.clone(),
            )
        })
        .collect()
}

fn factory() -> Box<dyn FeasibilityEngine> {
    Box::new(FusionSolver::new(SolverConfig::default()))
}

/// `n` pseudo-random booleans from `seed`, each true with probability
/// about one half.
fn mask(seed: u64, n: usize) -> Vec<bool> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) & 1 == 1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn replayed_and_masked_plans_reproduce_the_cold_report(
        seed in 0u64..100_000,
        modules in 2usize..4,
        owned_seed in 0u64..u64::MAX,
        affected_seed in 0u64..u64::MAX,
    ) {
        let cfg = GenConfig { seed, functions: 6, ..Default::default() };
        let program = compile(&generate_multi(&cfg, modules), CompileOptions::default())
            .expect("compile");
        let pdg = Pdg::build(&program);
        let set = CheckerSet::all();
        let n = program.functions.len();
        let owned = mask(owned_seed, n);
        let affected = mask(affected_seed, n);
        let is_owned = |v: Vertex| owned[v.func.index()];

        let mut engine = factory();
        let cold = analyze(
            &program,
            &pdg,
            &set,
            Engines::One(engine.as_mut()),
            &AnalysisOptions::new(),
            Plan::default(),
        );
        let items = multi_source_vertices(&program, &set);
        prop_assert_eq!(cold.outcomes.len(), items.len(), "a cold run records every item");
        let want = keys(&cold, is_owned);
        let owned_items = items.iter().filter(|(_, src)| is_owned(*src)).count();

        for threads in [1usize, 2, 4] {
            let planned = analyze(
                &program,
                &pdg,
                &set,
                Engines::PerThread(&factory, threads),
                &AnalysisOptions::new(),
                Plan {
                    retained: Some(&cold.outcomes),
                    affected: Some(&affected),
                    owned: Some(&owned),
                    ..Plan::default()
                },
            );
            prop_assert_eq!(
                keys(&planned, |_| true),
                want.clone(),
                "seed {} modules {} threads {}: planned run diverged from the owned cold report",
                seed, modules, threads
            );
            prop_assert_eq!(
                planned.outcomes.len(),
                owned_items,
                "seed {} threads {}: masked items must leave no record",
                seed, threads
            );
            // Replayed items never reach the engine: with nothing
            // affected, the whole plan is replay.
            if affected.iter().all(|&a| !a) {
                prop_assert_eq!(planned.queries, 0);
            }
        }
    }
}
