//! `shard_bench` — the partitioned out-of-core scan perf harness
//! (`BENCH_shard.json`).
//!
//! Measures the tentpole claim of call-graph sharding: splitting a
//! multi-module program into K shards, analyzing each against an
//! on-disk snapshot with only its call-graph closure materialized, and
//! replaying the merged outcomes bounds per-shard peak memory below the
//! whole-program peak — while the merged report stays byte-identical to
//! the unsharded scan and the merge replays with zero solver queries.
//!
//! Corpus: a deterministic multi-module subject (`generate_multi`) of
//! eight disconnected components sharing only extern declarations, so
//! shard closures are genuinely smaller than the program.
//!
//! Output: `BENCH_shard.json` (override with `FUSION_BENCH_OUT`). With
//! `FUSION_BENCH_ENFORCE=1` the process exits non-zero unless, at K=4
//! and 4 threads, (a) every per-shard peak is strictly below the
//! unsharded peak, (b) the merged report is byte-identical, and (c) the
//! sharded wall stays within 115% of the unsharded wall — the CI
//! regression gate.

use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze, AnalysisOptions, Engines, FeasibilityEngine, MultiAnalysisRun, Plan,
};
use fusion::graph_solver::FusionSolver;
use fusion::shard::analyze_sharded;
use fusion_bench::{banner, default_budget, fmt_mib, report, scale_from_env};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_workloads::{generate_multi, GenConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Thread count every run uses and the CI gate is applied at.
const GATE_THREADS: usize = 4;
/// Shard count the CI gate is applied at.
const GATE_K: usize = 4;
/// Wall-clock measurements take the best of this many repetitions.
const ITERS: usize = 3;
/// Disconnected modules in the subject — the memory win exists because
/// a shard's closure holds only the modules it owns.
const MODULES: usize = 8;
/// Shard counts measured and recorded.
const K_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The multi-module subject: MODULES independent generated programs
/// merged with per-module name prefixes, sharing only externs.
fn subject(scale: f64) -> String {
    let per_module = ((6_000.0 * scale) as usize).clamp(4, 48);
    // Solver-heavy seeding: per-shard analysis duplicates discovery
    // work (each shard rediscovers its closure, and the merge replays
    // discovery once more), so the corpus leans on seeded candidates —
    // where the wall is solving, not graph walking — to measure the
    // claim at a realistic solve/discovery ratio.
    let cfg = GenConfig {
        seed: 0x5AAD,
        functions: per_module,
        stmts_per_function: 60,
        branch_density: 0.3,
        null_feasible: 4,
        null_infeasible: 12,
        cwe23_feasible: 2,
        cwe23_infeasible: 6,
        cwe402_feasible: 2,
        cwe402_infeasible: 6,
        ..Default::default()
    };
    generate_multi(&cfg, MODULES)
}

fn compile_src(src: &str) -> Program {
    compile(src, CompileOptions::default()).expect("subject compiles")
}

fn factory() -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    let budget = default_budget();
    move || Box::new(FusionSolver::new(budget)) as Box<dyn FeasibilityEngine>
}

type ReportKey = (
    String,
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    fusion::engine::Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn keys(run: &MultiAnalysisRun) -> Vec<ReportKey> {
    run.checkers
        .iter()
        .flat_map(|b| {
            b.reports.iter().map(move |r| {
                (
                    b.kind.to_string(),
                    r.source,
                    r.sink,
                    r.verdict,
                    r.path.nodes.clone(),
                )
            })
        })
        .collect()
}

/// One shard count's best-of-ITERS measurements.
struct Row {
    k: usize,
    wall_us: u128,
    max_shard_peak: u64,
    shard_peaks: Vec<u64>,
    merge_queries: usize,
    summaries_exported: u64,
    summaries_imported: u64,
    snapshot_bytes_written: u64,
    snapshot_bytes_read: u64,
    reports_identical: bool,
}

fn main() {
    banner(
        "shard_bench: K-way partitioned scan vs unsharded scan",
        "on-disk snapshots, closure-only materialization; reports asserted identical",
    );
    let scale = scale_from_env();
    let src = subject(scale);
    let program = compile_src(&src);
    let set = CheckerSet::new(fusion::checkers::default_checkers());
    let make = factory();
    println!(
        "  subject: {} modules, {} functions, {} call sites",
        MODULES,
        program.functions.len(),
        program.call_sites.len()
    );

    // Interleaved rounds: every repetition measures the unsharded
    // baseline and every K back to back, so machine drift hits all
    // configurations equally; each config keeps its best wall. Fresh
    // caches per measurement — every run is cold.
    let dir = std::env::temp_dir().join(format!("fusion-shard-bench-{}", std::process::id()));
    let mut base_wall = u128::MAX;
    let mut base_run = None;
    let mut sharded_walls = [u128::MAX; K_COUNTS.len()];
    let mut sharded_runs: Vec<Option<fusion::shard::ShardedRun>> =
        K_COUNTS.iter().map(|_| None).collect();
    for _ in 0..ITERS {
        // The PDG build is inside the timer: an unsharded scan pays it,
        // exactly as the sharded pipeline pays its snapshot + replay.
        let t = Instant::now();
        let pdg = Pdg::build(&program);
        let run = analyze(
            &program,
            &pdg,
            &set,
            Engines::PerThread(&make, GATE_THREADS),
            &AnalysisOptions::new(),
            Plan::default(),
        );
        base_wall = base_wall.min(t.elapsed().as_micros());
        base_run = Some(run);
        for (ki, &k) in K_COUNTS.iter().enumerate() {
            let t = Instant::now();
            let sharded = analyze_sharded(
                &program,
                &set,
                &make,
                GATE_THREADS,
                &AnalysisOptions::new(),
                k,
                Some(dir.as_path()),
            )
            .expect("sharded scan");
            sharded_walls[ki] = sharded_walls[ki].min(t.elapsed().as_micros());
            sharded_runs[ki] = Some(sharded);
        }
    }
    let base_run = base_run.expect("ITERS > 0");
    let base_keys = keys(&base_run);
    println!(
        "  unsharded: {:>8}us  peak {:>10}  {} findings  {} queries",
        base_wall,
        fmt_mib(base_run.peak_memory),
        base_keys.len(),
        base_run.queries
    );

    let mut rows: Vec<Row> = Vec::new();
    for (ki, &k) in K_COUNTS.iter().enumerate() {
        let sharded = sharded_runs[ki].take().expect("ITERS > 0");
        let best_wall = sharded_walls[ki];
        let max_shard_peak = sharded.shard_peaks.iter().copied().max().unwrap_or(0);
        let row = Row {
            k,
            wall_us: best_wall,
            max_shard_peak,
            shard_peaks: sharded.shard_peaks.clone(),
            merge_queries: sharded.run.queries,
            summaries_exported: sharded.run.stages.summaries_exported,
            summaries_imported: sharded.run.stages.summaries_imported,
            snapshot_bytes_written: sharded.run.stages.snapshot_bytes_written,
            snapshot_bytes_read: sharded.run.stages.snapshot_bytes_read,
            reports_identical: keys(&sharded.run) == base_keys,
        };
        println!(
            "  k={:<2} wall {:>8}us ({:>5.1}% of unsharded)  max shard peak {:>10} \
             ({:>5.1}% of unsharded)  {} exported / {} imported  merge queries {}",
            k,
            row.wall_us,
            100.0 * row.wall_us as f64 / base_wall.max(1) as f64,
            fmt_mib(max_shard_peak),
            100.0 * max_shard_peak as f64 / base_run.peak_memory.max(1) as f64,
            row.summaries_exported,
            row.summaries_imported,
            row.merge_queries,
        );
        rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut per_k = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            per_k.push_str(",\n    ");
        }
        let peaks = row
            .shard_peaks
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            per_k,
            "{{\"k\": {}, \"wall_us\": {}, \"wall_pct_of_unsharded\": {:.2}, \
             \"max_shard_peak_bytes\": {}, \"shard_peaks\": [{peaks}], \
             \"merge_queries\": {}, \"summaries_exported\": {}, \"summaries_imported\": {}, \
             \"snapshot_bytes_written\": {}, \"snapshot_bytes_read\": {}, \
             \"reports_identical\": {}}}",
            row.k,
            row.wall_us,
            100.0 * row.wall_us as f64 / base_wall.max(1) as f64,
            row.max_shard_peak,
            row.merge_queries,
            row.summaries_exported,
            row.summaries_imported,
            row.snapshot_bytes_written,
            row.snapshot_bytes_read,
            row.reports_identical,
        );
    }

    let gate_row = rows
        .iter()
        .find(|r| r.k == GATE_K)
        .expect("gate shard count is measured");
    let all_identical = rows.iter().all(|r| r.reports_identical);
    let json = format!(
        "{{\n  \"scale\": {scale},\n  \"threads\": {GATE_THREADS},\n  \"iters\": {ITERS},\n  \
         \"modules\": {MODULES},\n  \"functions\": {},\n  \
         \"unsharded_wall_us\": {base_wall},\n  \"unsharded_peak_bytes\": {},\n  \
         \"unsharded_queries\": {},\n  \"findings\": {},\n  \
         \"per_k\": [\n    {per_k}\n  ],\n  \
         \"reports_identical\": {all_identical}\n}}\n",
        program.functions.len(),
        base_run.peak_memory,
        base_run.queries,
        base_keys.len(),
    );
    report::write("BENCH_shard.json", &json);

    // CI gates at K=GATE_K, GATE_THREADS threads: identical reports,
    // every per-shard peak strictly below the unsharded peak, wall
    // within 115%.
    let gate = report::Gate::from_env();
    gate.require(all_identical, || {
        "sharded reports diverged from the unsharded scan".into()
    });
    gate.require(
        gate_row
            .shard_peaks
            .iter()
            .all(|&p| p < base_run.peak_memory),
        || {
            format!(
                "a shard peaked at {} bytes, not below the unsharded peak {} at k={GATE_K}",
                gate_row.max_shard_peak, base_run.peak_memory
            )
        },
    );
    gate.require(gate_row.wall_us * 100 <= base_wall * 115, || {
        format!(
            "sharded wall {}us exceeds 115% of unsharded wall {base_wall}us at k={GATE_K}",
            gate_row.wall_us
        )
    });
    gate.pass("per-shard peaks below unsharded, identical reports, wall within 115%");
}
