//! `pipeline_bench` — the analysis-pipeline perf harness
//! (`BENCH_pipeline.json`).
//!
//! Three measurements over a fixed corpus (a synthetic many-source
//! hot-sink program plus two scaled workload subjects):
//!
//! * **report parity** — the driver at the bench thread count (discovery
//!   sharded across the threads, then workers stealing whole sink
//!   groups) against one caller-owned engine; reports asserted
//!   byte-identical, wall recorded;
//! * **slices cold vs memoized** — a cold run against a second run
//!   sharing the same [`SliceCache`]: the warm run must answer its
//!   closure requests from the memo;
//! * **discovery throughput** — `discover_all` at 1 shard vs the bench
//!   thread count, DFS steps per second.
//!
//! The thread count is `MAX_THREADS` clamped to the cores present; both
//! are recorded. Output: `BENCH_pipeline.json` in the working directory
//! (override with `FUSION_BENCH_OUT`). With `FUSION_BENCH_ENFORCE=1` the
//! process exits non-zero when the slice memo records no hits — the CI
//! regression gate.

use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{analyze, AnalysisOptions, AnalysisRun, Engines, FeasibilityEngine, Plan};
use fusion::graph_solver::FusionSolver;
use fusion::propagate::{discover_all, PropagateOptions};
use fusion::slice_cache::SliceCache;
use fusion_bench::{banner, build_subject, default_budget, report, scale_from_env};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_workloads::SUBJECTS;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on the bench thread count; the run uses
/// `min(MAX_THREADS, cores)`.
const MAX_THREADS: usize = 4;
/// Wall-clock measurements take the best of this many repetitions.
const ITERS: usize = 3;

/// Synthetic subject: `funcs` functions, each holding one opaque
/// nonlinear core guarding `sinks` null-deref candidates — many sources
/// across many sink groups, so discovery shards and solve workers both
/// have real work.
fn hot_sink_source(funcs: usize, sinks: usize) -> String {
    let mut s = String::from("extern fn deref(p);\n");
    for f in 0..funcs {
        let _ = writeln!(
            s,
            "fn churn{f}(a, b) {{ let t = a * b; let u = t * t + a; \
             let v = u * b + t; let z = v * v + u; return z; }}"
        );
        let _ = writeln!(s, "fn hot{f}(x, y) {{");
        let _ = writeln!(s, "  let w = churn{f}(x, y);");
        for k in 0..sinks {
            let target = 77 + 2 * k + f;
            let _ = writeln!(
                s,
                "  let q{k} = null; let r{k} = 1; if (w == {target}) {{ r{k} = q{k}; }} deref(r{k});"
            );
        }
        let _ = writeln!(
            s,
            "  let qz = null; let rz = 1; if (x * x == 3) {{ rz = qz; }} deref(rz);"
        );
        let _ = writeln!(s, "  return 0;\n}}");
    }
    s
}

struct Entry {
    name: String,
    program: Program,
    pdg: Pdg,
}

fn corpus() -> Vec<Entry> {
    let mut entries = Vec::new();
    let hot = hot_sink_source(8, 12);
    let program = compile(&hot, CompileOptions::default()).expect("corpus compiles");
    let pdg = Pdg::build(&program);
    entries.push(Entry {
        name: "hot-sinks".into(),
        program,
        pdg,
    });
    let scale = scale_from_env();
    for spec in &SUBJECTS[..2] {
        let subject = build_subject(spec, scale);
        entries.push(Entry {
            name: spec.name.to_string(),
            program: subject.program,
            pdg: subject.pdg,
        });
    }
    entries
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

fn keys(run: &AnalysisRun) -> Vec<ReportKey> {
    run.reports
        .iter()
        .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
        .collect()
}

fn run(
    entry: &Entry,
    checker: &Checker,
    engines: Engines<'_>,
    opts: &AnalysisOptions,
) -> AnalysisRun {
    let set = CheckerSet::single(checker.clone());
    analyze(
        &entry.program,
        &entry.pdg,
        &set,
        engines,
        opts,
        Plan::default(),
    )
    .into_single()
}

fn main() {
    banner(
        "pipeline_bench: threaded driver parity, slice memo, discovery throughput",
        "same corpus; reports asserted identical to one engine",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = MAX_THREADS.min(cores);
    let budget = default_budget();
    let checker = Checker::null_deref();
    let make = factory();

    let mut one_us: u128 = 0;
    let mut threaded_us: u128 = 0;
    let mut reports_identical = true;
    let mut slices_cold: u64 = 0;
    let mut slices_warm: u64 = 0;
    let mut slice_hits: u64 = 0;
    let mut slice_requests: u64 = 0;
    let mut discovery_steps: u64 = 0;
    let mut discovery_seq_us: u128 = 0;
    let mut discovery_shard_us: u128 = 0;

    for entry in corpus() {
        // One caller-owned engine vs `threads` factory engines: best of
        // ITERS, fresh caches per repetition so every run is cold. The
        // first one-engine run is the reference transcript.
        let mut want = None;
        let mut best_one = u128::MAX;
        let mut best_threaded = u128::MAX;
        for _ in 0..ITERS {
            let mut engine = FusionSolver::new(budget);
            let t = Instant::now();
            let one = run(
                &entry,
                &checker,
                Engines::One(&mut engine),
                &AnalysisOptions::new(),
            );
            best_one = best_one.min(t.elapsed().as_micros());
            let want = want.get_or_insert_with(|| keys(&one));
            if keys(&one) != *want {
                reports_identical = false;
            }

            let t = Instant::now();
            let threaded = run(
                &entry,
                &checker,
                Engines::PerThread(&make, threads),
                &AnalysisOptions::new(),
            );
            best_threaded = best_threaded.min(t.elapsed().as_micros());
            if keys(&threaded) != *want {
                reports_identical = false;
            }
        }
        let want = want.expect("ITERS > 0");
        one_us += best_one;
        threaded_us += best_threaded;

        // Slice memoization: cold run vs warm run sharing one SliceCache
        // (fresh verdict caches both, so the warm run re-queries).
        let shared = Arc::new(SliceCache::new());
        let opts = || AnalysisOptions::new().with_slice_cache(Arc::clone(&shared));
        let cold = run(
            &entry,
            &checker,
            Engines::PerThread(&make, threads),
            &opts(),
        );
        let warm = run(
            &entry,
            &checker,
            Engines::PerThread(&make, threads),
            &opts(),
        );
        if keys(&cold) != want || keys(&warm) != want {
            reports_identical = false;
        }
        slices_cold += cold.stages.slices_computed;
        slices_warm += warm.stages.slices_computed;
        slice_hits += warm.slice.hits;
        slice_requests += warm.slice.hits + warm.slice.misses;

        // Discovery throughput: 1 shard vs `threads` shards.
        let popts = PropagateOptions::default();
        let t = Instant::now();
        let seq_d = discover_all(&entry.program, &entry.pdg, &checker, &popts, 1);
        discovery_seq_us += t.elapsed().as_micros();
        let t = Instant::now();
        let par_d = discover_all(&entry.program, &entry.pdg, &checker, &popts, threads);
        discovery_shard_us += t.elapsed().as_micros();
        assert_eq!(
            seq_d.candidates.len(),
            par_d.candidates.len(),
            "{}: sharded discovery changed the candidate set",
            entry.name
        );
        discovery_steps += seq_d.steps;

        println!(
            "  {:<16} one engine={:>8}us {threads} threads={:>8}us slices cold/warm={}/{}",
            entry.name,
            best_one,
            best_threaded,
            cold.stages.slices_computed,
            warm.stages.slices_computed,
        );
    }
    assert!(
        reports_identical,
        "threaded runs must report byte-identically to one engine"
    );

    let steps_per_sec = |us: u128| -> f64 {
        if us == 0 {
            0.0
        } else {
            discovery_steps as f64 / (us as f64 / 1e6)
        }
    };
    let hit_rate = if slice_requests == 0 {
        0.0
    } else {
        slice_hits as f64 / slice_requests as f64
    };
    let threaded_pct = if one_us == 0 {
        0.0
    } else {
        100.0 * threaded_us as f64 / one_us as f64
    };

    println!("--------------------------------------------------------------");
    println!(
        "one engine: {:>9.3}ms   {threads} threads: {:>9.3}ms   ({threaded_pct:.1}%; {cores} cores)",
        one_us as f64 / 1000.0,
        threaded_us as f64 / 1000.0,
    );
    println!(
        "slices:    cold {} -> memoized {} ({}x reduction); warm hit rate {:.2}",
        slices_cold,
        slices_warm,
        if slices_warm == 0 {
            slices_cold as f64
        } else {
            slices_cold as f64 / slices_warm as f64
        },
        hit_rate,
    );
    println!(
        "discovery: {} steps; {:.0} steps/s at 1 shard, {:.0} steps/s at {threads} shards",
        discovery_steps,
        steps_per_sec(discovery_seq_us),
        steps_per_sec(discovery_shard_us),
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {threads},\n  \"cores\": {cores},\n  \
         \"iters\": {ITERS},\n  \
         \"one_engine_wall_us\": {one_us},\n  \"threaded_wall_us\": {threaded_us},\n  \
         \"threaded_pct_of_one_engine\": {threaded_pct:.2},\n  \
         \"slices_computed_cold\": {slices_cold},\n  \
         \"slices_computed_memoized\": {slices_warm},\n  \
         \"slice_warm_hit_rate\": {hit_rate:.4},\n  \
         \"discovery\": {{\"steps\": {discovery_steps}, \"seq_us\": {discovery_seq_us}, \
         \"sharded_us\": {discovery_shard_us}, \"steps_per_sec_seq\": {:.0}, \
         \"steps_per_sec_sharded\": {:.0}}},\n  \
         \"reports_identical\": {reports_identical}\n}}\n",
        scale_from_env(),
        steps_per_sec(discovery_seq_us),
        steps_per_sec(discovery_shard_us),
    );
    report::write("BENCH_pipeline.json", &json);

    // CI gate: the memo must hit.
    let gate = report::Gate::from_env();
    gate.require(slice_hits > 0, || {
        "slice memo recorded no hits on the warm runs".into()
    });
    gate.pass("slice memo hit");
}
