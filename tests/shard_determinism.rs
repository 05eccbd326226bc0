//! Partitioned scans must be invisible in the output.
//!
//! `fusion::shard::analyze_sharded` splits the call graph into K
//! shards, runs each against an on-disk (or in-memory) snapshot with
//! only its closure materialized, and replays the merged outcomes over
//! the full program. None of that may reach the user: on arbitrary
//! generated multi-module programs, the sharded report must be
//! *byte-identical* — same checkers, sources, sinks, verdicts, witness
//! paths, and inter-procedural links, in the same order — to the
//! unsharded pipeline, across K ∈ {1, 2, 4, 8}, thread counts 1–8,
//! every cache/absint/compact/incremental/egraph corner exercised here,
//! and both the in-process and the multi-process (`--shard-workers`)
//! coordinators. And the merge must be a *pure replay*: zero solver
//! queries after the shards hand in their outcomes.

use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze, AnalysisOptions, Engines, Feasibility, FeasibilityEngine, MultiAnalysisRun, Plan,
};
use fusion::graph_solver::FusionSolver;
use fusion::shard::analyze_sharded;
use fusion::slice_cache::SliceCache;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::Link;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate_multi, GenConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Everything that reaches the user, in a comparable form, per checker —
/// including the inter-procedural links of the witness path.
type ReportKey = (
    usize,
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
    Vec<Link>,
);

fn keys(run: &MultiAnalysisRun) -> Vec<ReportKey> {
    run.checkers
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            b.reports.iter().map(move |r| {
                (
                    i,
                    r.source,
                    r.sink,
                    r.verdict,
                    r.path.nodes.clone(),
                    r.path.links.clone(),
                )
            })
        })
        .collect()
}

fn factory(incremental: bool, egraph: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut cfg = SolverConfig::default();
        cfg.egraph.enabled = egraph;
        let mut engine = FusionSolver::new(cfg);
        engine.incremental = incremental;
        Box::new(engine)
    }
}

fn options(use_cache: bool, absint: bool, compact: bool) -> AnalysisOptions {
    let mut o = if use_cache {
        AnalysisOptions::new()
    } else {
        AnalysisOptions::without_cache()
    };
    o = o.with_slice_cache(Arc::new(SliceCache::new()));
    o.absint = absint;
    o.compact = compact;
    o
}

fn compile_src(src: &str) -> Program {
    compile(src, CompileOptions::default()).expect("compile")
}

fn subject(seed: u64, modules: usize) -> String {
    let cfg = GenConfig {
        seed,
        functions: 6,
        ..Default::default()
    };
    generate_multi(&cfg, modules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random multi-module program: the sharded report equals the
    /// unsharded report at every K, thread count, and flag
    /// corner — and the merge replays without a single solver query.
    #[test]
    fn sharded_report_equals_unsharded(seed in 0u64..100_000, modules in 2usize..4) {
        let src = subject(seed, modules);
        let program = compile_src(&src);
        let pdg = Pdg::build(&program);
        let set = CheckerSet::new(fusion::checkers::default_checkers());
        let non_extern = program.functions.iter().filter(|f| !f.is_extern).count() as u64;

        // (use_cache, absint, compact, incremental, egraph): the full
        // default stack, everything off, and a mixed corner.
        let configs = [
            (true, true, true, true, true),
            (false, false, false, false, false),
            (true, false, true, false, true),
        ];
        for (use_cache, absint, compact, incremental, egraph) in configs {
            for threads in [1usize, 2, 4, 8] {
                let base = analyze(
                    &program, &pdg, &set,
                    Engines::PerThread(&factory(incremental, egraph), threads),
                    &options(use_cache, absint, compact), Plan::default(),
                );
                let base_keys = keys(&base);
                for k in [1usize, 2, 4, 8] {
                    let sharded = analyze_sharded(
                        &program, &set, &factory(incremental, egraph), threads,
                        &options(use_cache, absint, compact), k, None,
                    ).expect("sharded scan");
                    prop_assert_eq!(
                        &base_keys, &keys(&sharded.run),
                        "sharded diverged at seed {} modules {} k {} threads {} \
                         cache={} absint={} compact={} incremental={} egraph={}",
                        seed, modules, k, threads,
                        use_cache, absint, compact, incremental, egraph
                    );
                    prop_assert_eq!(
                        sharded.run.queries, 0,
                        "the merge replay must not query the solver"
                    );
                    prop_assert_eq!(sharded.run.stages.shards, k as u64);
                    prop_assert_eq!(sharded.run.stages.summaries_exported, non_extern);
                    // Demand-driven imports: a shard imports at most its
                    // closure minus what it owns — never the program.
                    prop_assert!(
                        sharded.run.stages.summaries_imported < non_extern.max(1) * k as u64,
                        "imported {} summaries with {} functions at k={}",
                        sharded.run.stages.summaries_imported, non_extern, k
                    );
                }
            }
        }
    }

    /// Routing the snapshot through a real file changes nothing but the
    /// bytes-read counter.
    #[test]
    fn on_disk_snapshot_matches_in_memory(seed in 0u64..100_000) {
        let src = subject(seed, 2);
        let program = compile_src(&src);
        let set = CheckerSet::new(fusion::checkers::default_checkers());
        let dir = std::env::temp_dir().join(format!("fusion-shard-det-{}-{seed}", std::process::id()));
        let mem = analyze_sharded(
            &program, &set, &factory(true, true), 2,
            &options(true, true, true), 4, None,
        ).expect("in-memory");
        let disk = analyze_sharded(
            &program, &set, &factory(true, true), 2,
            &options(true, true, true), 4, Some(dir.as_path()),
        ).expect("on-disk");
        prop_assert_eq!(keys(&mem.run), keys(&disk.run), "seed {}", seed);
        prop_assert!(disk.run.stages.snapshot_bytes_read > 0);
        prop_assert!(dir.join("scan.fsnp").is_file(), "snapshot file materialized");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The multi-process coordinator (`--shards K --shard-workers N`) hands
/// jobs to real `fusion-scan --shard-worker` child processes and must
/// still match the unsharded and in-process sharded reports exactly,
/// finding for finding.
#[test]
fn multiprocess_sharded_scan_matches_unsharded() {
    if fusion_cli::shards::worker_binary().is_err() {
        eprintln!("skipping: no fusion-scan binary found (set FUSION_SCAN_BIN)");
        return;
    }
    let src = subject(77, 3);
    let finding_key = |r: &fusion_cli::ScanReport| {
        r.findings
            .iter()
            .map(|f| {
                (
                    f.checker.clone(),
                    f.source_function.clone(),
                    f.sink_function.clone(),
                    f.verdict.clone(),
                    f.path_length,
                )
            })
            .collect::<Vec<_>>()
    };
    for threads in [1usize, 4] {
        let base = fusion_cli::scan_source(
            &src,
            &fusion_cli::Options {
                threads,
                ..Default::default()
            },
        )
        .expect("unsharded scan");
        for k in [1usize, 2, 4, 8] {
            let inproc = fusion_cli::scan_source(
                &src,
                &fusion_cli::Options {
                    threads,
                    shards: k,
                    ..Default::default()
                },
            )
            .expect("in-process sharded scan");
            let multi = fusion_cli::scan_source(
                &src,
                &fusion_cli::Options {
                    threads,
                    shards: k,
                    shard_workers: 2,
                    ..Default::default()
                },
            )
            .expect("multi-process sharded scan");
            assert_eq!(
                finding_key(&base),
                finding_key(&inproc),
                "in-process k={k} threads={threads}"
            );
            assert_eq!(
                finding_key(&base),
                finding_key(&multi),
                "multi-process k={k} threads={threads}"
            );
            assert_eq!(multi.shards, k as u64);
            assert!(multi.snapshot_bytes_written > 0);
            assert!(multi.snapshot_bytes_read > 0);
        }
    }
}
