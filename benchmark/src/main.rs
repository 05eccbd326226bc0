//! `fusion-perfbench` — Fusion's canonical benchmark.
//!
//! ```text
//! fusion-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! Generates the workload's inputs from the seed, then runs whole rounds
//! of operations through the entry points users run — `scan_source` (what
//! `fusion-scan FILE` runs), the `--serve` protocol, and the in-process
//! partitioned scan — as a closed loop with one client until `--seconds`
//! have passed. Rounds set the program up again now and then (a cold
//! `--serve` session, a warm-up pass), and `setup_s` is the median of
//! those set-ups. Every operation's findings are checked against an
//! answer that does not come from the analyzer.
//!
//! End-to-end times are the process's CPU time, every thread, stated at
//! nominal host speed: a fixed reference computation is timed between
//! operations, and each operation's CPU time is scaled by how fast the
//! reference ran around it (`calibrate.rs`). Wall times go to the info
//! line only.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` rounds alternate between untraced and traced, and it
//! carries the per-layer metrics: span self times around each layer's
//! public functions, the counters the scanner's report returns, and the
//! tracing overhead. See `NOTES.md` for the workloads and metrics.

mod alloc;
mod calibrate;
mod corpus;
mod cpu;
mod serve_client;
mod stats;
mod trace;
mod truth;
mod workloads;

use calibrate::Calibration;
use stats::{mean, median, ratio, tail};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::OpRecord;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_heap_are_median_windows() {
        // Three full windows of 10 ms, 10 ms and 40 ms operations, and a
        // partial one that is left out.
        let mut walls = vec![10.0; 2 * WINDOW];
        walls.extend(vec![40.0; WINDOW]);
        walls.extend([1.0, 1.0]);
        assert_eq!(throughput(&walls), 100.0);
        assert_eq!(throughput(&walls[..3]), 0.0);
        // One window of heap peaks far above the others.
        let mut peaks = vec![2.0; 3 * WINDOW];
        peaks[WINDOW] = 2.0 + 100.0 * WINDOW as f64;
        assert_eq!(per_window(&peaks, mean), 2.0);
    }

    #[test]
    fn arguments_need_workload_and_seconds() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload hot-sinks --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert_eq!(a.threads, REQUESTED_THREADS);
        assert!(parse_args(&args("--workload hot-sinks --seed 7")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }
}

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Worker threads asked for; the run uses at most the cores present.
/// One: on a 2-core host a second worker costs about half again the CPU
/// time of a scan without making it faster, and its hand-offs make
/// the CPU time of a run depend on what else the host runs.
const REQUESTED_THREADS: usize = 1;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        threads: REQUESTED_THREADS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => parsed.trace = number()? == 1,
            "--threads" => parsed.threads = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.workload.is_empty() || parsed.seconds == 0 {
        return Err(format!(
            "usage: fusion-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
             [--threads <n>]",
            workloads::NAMES.join("|")
        ));
    }
    Ok(parsed)
}

/// Operations attempted and the ones that failed or disagreed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, op: &OpRecord) {
        self.attempted += 1;
        if let Some(f) = &op.failure {
            self.failures.push(f.clone());
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn reports(ops: &[OpRecord]) -> impl Iterator<Item = &fusion_cli::ScanReport> {
    ops.iter().filter_map(|o| o.report.as_ref())
}

fn candidates(r: &fusion_cli::ScanReport) -> f64 {
    r.checkers.iter().map(|c| c.candidates as f64).sum()
}

/// Consecutive operations per throughput window.
const WINDOW: usize = 16;

/// A run goes on past `--seconds` until it has this many windows, so
/// that one input whose scan takes most of the run (see `NOTES.md`)
/// fills one window of several rather than the whole run...
const MIN_WINDOWS: usize = 4;
/// ...but not past this, so that it ends well within three minutes.
const MAX_RUN: Duration = Duration::from_secs(150);

/// The median over windows of [`WINDOW`] consecutive values of `f` of
/// the window, so one stalled window does not move it. A partial last
/// window is left out.
fn per_window(values: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    let per_window: Vec<f64> = values.chunks_exact(WINDOW).map(f).collect();
    median(&per_window)
}

/// Operations per second of the given per-operation milliseconds, over
/// windows.
fn throughput(ms: &[f64]) -> f64 {
    per_window(ms, |w| ratio(WINDOW as f64 * 1e3, w.iter().sum()))
}

/// The end-to-end metrics of an untraced run. Times are CPU time of the
/// process at nominal host speed: on a shared host, wall time also counts
/// the time the program's threads waited for a core, and the speed of a
/// core changes with what else the host runs (see [`calibrate`]).
fn end_to_end(
    ops: &[OpRecord],
    setups: &[(f64, usize)],
    cal: &Calibration,
    tail_p: f64,
    tally: &Tally,
) -> Vec<Metric> {
    let cpus: Vec<f64> = ops
        .iter()
        .map(|o| o.cpu_ms * cal.factor(o.speed_sample))
        .collect();
    let setups: Vec<f64> = setups.iter().map(|&(s, i)| s * cal.factor(i)).collect();
    let peaks: Vec<f64> = ops.iter().map(|o| o.heap_peak() as f64).collect();
    let undecided: usize = ops.iter().map(|o| o.undecided).sum();
    let cands: usize = ops.iter().map(|o| o.candidates).sum();
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("ops_per_cpu_s", throughput(&cpus), "1/s"),
        metric("op_cpu_ms_p50", median(&cpus), "ms"),
        metric("op_cpu_ms_tail", tail(&cpus, tail_p).0, "ms"),
        metric("peak_heap_mib", per_window(&peaks, mean) / MIB, "MiB"),
        metric(
            "decided_share",
            1.0 - ratio(undecided as f64, cands as f64),
            "ratio",
        ),
        metric(
            "ok_share",
            1.0 - ratio(tally.failures.len() as f64, tally.attempted as f64),
            "ratio",
        ),
    ]
}

/// Milliseconds of self time of spans named `name` in one operation.
fn span_ms(op: &OpRecord, name: &str) -> f64 {
    let own = trace::self_times(&op.spans);
    op.spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .sum()
}

/// Milliseconds of a `rescan` spent outside the session's analysis and
/// outside compiling: the protocol's request and response handling.
fn protocol_ms(op: &OpRecord) -> f64 {
    match &op.report {
        Some(r) if op.spans.iter().any(|s| s.name == "rescan") => {
            span_ms(op, "rescan") - r.elapsed_ms - span_ms(op, "ir.parse") - span_ms(op, "ir.lower")
        }
        _ => 0.0,
    }
}

/// The per-layer metrics of a traced run (`untraced` gives the tracing
/// overhead its base).
fn per_layer(traced: &[OpRecord], untraced: &[OpRecord], threads: usize) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&fusion_cli::ScanReport) -> f64| -> f64 { reports(traced).map(f).sum() };
    // Per-operation means, so a corpus of unequal inputs is summed
    // rather than represented by its middle input.
    let per_op = |f: &dyn Fn(&fusion_cli::ScanReport) -> f64| sum(f) / n;
    let span = |name: &str| traced.iter().map(|o| span_ms(o, name)).sum::<f64>() / n;
    let steps =
        |r: &fusion_cli::ScanReport| r.checkers.iter().map(|c| c.discovery_steps as f64).sum();
    let queries = |r: &fusion_cli::ScanReport| r.checkers.iter().map(|c| c.queries as f64).sum();
    let engine_ms = sum(&|r| r.slice_ms + r.translate_ms + r.solve_ms);
    let driver_ms: f64 = traced.iter().map(|o| o.driver_ms).sum();
    let mean_cpu = |ops: &[OpRecord]| mean(&ops.iter().map(|o| o.cpu_ms).collect::<Vec<_>>());
    let max = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0, f64::max);
    vec![
        metric("ir.parse_ms", span("ir.parse"), "ms"),
        metric("ir.lower_ms", span("ir.lower"), "ms"),
        metric("pdg.build_ms", span("pdg.build"), "ms"),
        metric("pdg.vertices", per_op(&|r| r.vertices as f64), "count"),
        metric("pdg.edges", per_op(&|r| r.edges as f64), "count"),
        metric("absint.compute_ms", span("absint.compute"), "ms"),
        metric(
            "absint.triaged_paths",
            per_op(&|r| r.triaged_paths as f64),
            "count",
        ),
        metric(
            "absint.triaged_candidates",
            per_op(&|r| r.triaged_candidates as f64),
            "count",
        ),
        metric("compact.build_ms", span("compact.build"), "ms"),
        metric(
            "compact.vertices_pruned",
            per_op(&|r| r.vertices_pruned as f64),
            "count",
        ),
        metric("compact.iso_hits", per_op(&|r| r.iso_hits as f64), "count"),
        metric("propagate.discover_ms", per_op(&|r| r.discover_ms), "ms"),
        metric("propagate.steps", per_op(&steps), "count"),
        metric("propagate.candidates", per_op(&candidates), "count"),
        metric(
            "cache.hit_ratio",
            ratio(
                sum(&|r| r.cache_hits as f64),
                sum(&|r| (r.cache_hits + r.cache_misses) as f64),
            ),
            "ratio",
        ),
        metric(
            "slice_cache.hit_ratio",
            ratio(
                sum(&|r| r.slices_reused as f64),
                sum(&|r| (r.slices_reused + r.slices_computed) as f64),
            ),
            "ratio",
        ),
        metric("graph_solver.queries", per_op(&queries), "count"),
        metric(
            "graph_solver.sessions",
            per_op(&|r| r.sessions_opened as f64),
            "count",
        ),
        metric("graph_solver.slice_ms", per_op(&|r| r.slice_ms), "ms"),
        metric(
            "graph_solver.translate_ms",
            per_op(&|r| r.translate_ms),
            "ms",
        ),
        metric("smt.solve_ms", per_op(&|r| r.solve_ms), "ms"),
        metric(
            "smt.egraph_rewrites",
            per_op(&|r| r.egraph_rewrites as f64),
            "count",
        ),
        metric(
            "smt.egraph_nodes_saved",
            per_op(&|r| r.egraph_nodes_saved as f64),
            "count",
        ),
        metric(
            "smt.egraph_cap_hits",
            per_op(&|r| r.egraph_cap_hits as f64),
            "count",
        ),
        metric(
            "engine.busy_share",
            ratio(engine_ms, threads as f64 * driver_ms),
            "ratio",
        ),
        metric(
            "incremental.reanalyzed_share",
            ratio(sum(&|r| r.candidates_reanalyzed as f64), sum(&candidates)),
            "ratio",
        ),
        metric(
            "incremental.verdicts_invalidated",
            per_op(&|r| r.verdicts_invalidated as f64),
            "count",
        ),
        metric(
            "incremental.facts_invalidated",
            per_op(&|r| r.facts_invalidated as f64),
            "count",
        ),
        metric(
            "shard.summaries_imported",
            per_op(&|r| r.summaries_imported as f64),
            "count",
        ),
        metric(
            "snapshot.bytes_written",
            per_op(&|r| r.snapshot_bytes_written as f64),
            "bytes",
        ),
        metric(
            "snapshot.bytes_read",
            per_op(&|r| r.snapshot_bytes_read as f64),
            "bytes",
        ),
        metric(
            "memory.accountant_peak_mib",
            max(&mut reports(traced).map(|r| r.peak_memory_bytes as f64)) / MIB,
            "MiB",
        ),
        metric(
            "memory.heap_op_peak_mib",
            max(&mut traced.iter().map(|o| o.heap_op_peak as f64)) / MIB,
            "MiB",
        ),
        metric(
            "serve.protocol_ms",
            traced.iter().map(protocol_ms).sum::<f64>() / n,
            "ms",
        ),
        metric(
            "trace.overhead_ms",
            mean_cpu(traced) - mean_cpu(untraced),
            "ms",
        ),
    ]
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted,
        tally.failures.len()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(args.threads);
    let mut workload = workloads::build(&args.workload, args.seed, threads).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    // Whole rounds until the time is up and the run has its windows; a
    // traced run alternates untraced and traced rounds and needs one of
    // each. The host's speed is sampled around every set-up and between
    // operations.
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut round = 0usize;
    let mut cal = Calibration::default();
    let more_needed = |ops: usize, round: usize| {
        round < 1 + usize::from(args.trace)
            || (ops < MIN_WINDOWS * WINDOW && started.elapsed() < MAX_RUN)
    };
    while started.elapsed() < budget || more_needed(untraced.len(), round) {
        let before_set_up = cal.sample();
        let set_up = workload.next_round();
        if !set_up.is_empty() {
            let cpu_ms: f64 = set_up.iter().map(|o| o.cpu_ms).sum();
            setups.push((cpu_ms / 1e3, before_set_up));
            cal.sample();
        }
        set_up.iter().for_each(|o| tally.add(o));
        let tracing = args.trace && round % 2 == 1;
        for i in 0..workload.round_len() {
            let speed_sample = cal.tick();
            let op = OpRecord {
                speed_sample,
                ..workload.op(i, tracing)
            };
            tally.add(&op);
            if tracing {
                traced.push(op);
            } else {
                untraced.push(op);
            }
        }
        round += 1;
    }
    cal.sample();
    if let Err(e) = workload.close() {
        tally.failures.push(e);
    }

    let walls: Vec<f64> = untraced.iter().map(|o| o.wall_ms).collect();
    let tail_p = workloads::tail_percentile(&args.workload);
    let (_, beyond) = tail(&walls, tail_p);
    let (reference_ms, speed_samples) = cal.summary();
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \
         \"cores\": {cores}, \"rounds\": {round}, \"ops\": {}, \"traced_ops\": {}, \
         \"tail_percentile\": {}, \"tail_beyond\": {}, \"setup_samples\": {}, \
         \"speed_samples\": {speed_samples}, \"reference_cpu_ms_p50\": {reference_ms:.3}, \
         \"wall_ops_per_s\": {:.3}, \"wall_ms_p50\": {:.3}, \"input\": \"{}\"}}}}",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        tail_p,
        beyond,
        setups.len(),
        throughput(&walls),
        median(&walls),
        fusion_cli::json::escape(&workload.input_note()),
    );
    for f in tally.failures.iter().take(5) {
        eprintln!("FAILED: {f}");
    }
    let metrics = if args.trace {
        per_layer(&traced, &untraced, threads)
    } else {
        end_to_end(&untraced, &setups, &cal, tail_p, &tally)
    };
    let correct = tally.failures.is_empty();
    println!("{}", result_line(correct, &tally, &metrics));
}
