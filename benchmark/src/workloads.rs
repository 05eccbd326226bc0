//! The four workloads. Each times its operations around the entry point
//! a user runs, and checks every operation's findings against the
//! answer its inputs carry.

use crate::alloc;
use crate::corpus::{self, Editor, HotShape, Input};
use crate::cpu;
use crate::serve_client::{parse_scan_response, ServeClient};
use crate::trace::{Span, Tracer};
use crate::truth;
use fusion::absint::ProgramFacts;
use fusion::compact::CompactPdg;
use fusion::engine::AnalysisOptions;
use fusion_cli::{effective_checkers, scan_source, Options, ScanReport};
use fusion_ir::{compile_ast, parser, CompileOptions, Interner};
use fusion_pdg::graph::Pdg;
use std::hint::black_box;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "table2-cold",
    "hot-sinks",
    "modules-serve",
    "modules-sharded",
];

/// The percentile `op_cpu_ms_tail` reports on workload `name`, fixed per
/// workload so that runs completing more or fewer operations report the
/// same percentile. Each leaves at least ten operations beyond it in a
/// run at this commit's speed, and none falls in the gap between two
/// kinds of input, where it would jump between them from run to run:
/// p95 on `table2-cold`, inside its largest subject (one scan in 16;
/// p90 falls between the three largest), p75 on `modules-sharded` (about
/// 100 scans a run), p90 elsewhere.
pub fn tail_percentile(name: &str) -> f64 {
    match name {
        "table2-cold" => 95.0,
        "modules-sharded" => 75.0,
        _ => 90.0,
    }
}

/// Modules × filler functions per module of the `--serve` program; small
/// because the protocol's JSON decoding is quadratic in request length.
const SERVE_PROGRAM: (usize, usize) = (4, 2);
/// Modules × filler functions per module of the partitioned program.
const SHARDED_PROGRAM: (usize, usize) = (8, 6);
/// Partitioned programs scanned per round.
const SHARDED_PROGRAMS: usize = 4;
/// Shards of the partitioned scan.
const SHARDS: usize = 4;
/// A stateless workload runs a warm-up pass over a draw of its own before
/// every this many rounds, the first round included; each pass is one
/// set-up sample.
const SETUP_EVERY: u64 = 3;
/// Rescans per `--serve` session.
const EDITS_PER_SESSION: usize = 16;
/// Hot-sinks programs scanned per round, and their shape.
const HOT_PROGRAMS: usize = 8;
const HOT_SHAPE: HotShape = HotShape {
    functions: 2,
    feasible: 2,
    infeasible: 2,
};

/// One operation, as measured and checked.
#[derive(Default)]
pub struct OpRecord {
    /// Wall milliseconds: the entry-point call, or with tracing the
    /// whole traced operation.
    pub wall_ms: f64,
    /// CPU milliseconds of the process, every thread, over the same
    /// interval.
    pub cpu_ms: f64,
    /// The speed sample taken last before the operation.
    pub speed_sample: usize,
    /// Findings with an `undecided` verdict.
    pub undecided: usize,
    /// Candidates the scan decided or left undecided.
    pub candidates: usize,
    /// The scanner's report without its findings, kept for traced
    /// operations only.
    pub report: Option<ScanReport>,
    /// Why the operation failed or disagreed with its answer.
    pub failure: Option<String>,
    /// Spans of a traced operation (empty untraced).
    pub spans: Vec<Span>,
    /// Milliseconds of the traced parse, lower and PDG build.
    pub front_ms: f64,
    /// Wall milliseconds of the analysis driver (the report's elapsed
    /// time less the front half the scan ran before it), traced only.
    pub driver_ms: f64,
    /// Heap high-water mark of the entry-point call above the bytes live
    /// before it.
    pub heap_op_peak: usize,
    /// Bytes the program holds across the call: the source a
    /// `fusion-scan FILE` process reads, or a `--serve` session's
    /// resident state.
    pub resident: usize,
}

impl OpRecord {
    /// The program's heap at its peak during the operation; the
    /// benchmark's own bytes are not in it.
    pub fn heap_peak(&self) -> usize {
        self.resident + self.heap_op_peak
    }
}

/// A workload: rounds of operations, each round on newly drawn inputs so
/// that a run averages over many draws of its inputs.
pub trait Workload {
    /// Draws the next round's inputs; returns the set-up operations the
    /// round needs first (one set-up sample when there are any).
    fn next_round(&mut self) -> Vec<OpRecord>;
    /// Operations in the current round.
    fn round_len(&self) -> usize;
    /// Runs operation `i` of the round, traced or not.
    fn op(&mut self, i: usize, traced: bool) -> OpRecord;
    /// Input size, stated with the throughput.
    fn input_note(&self) -> String;
    /// Stops what the workload started; the error says what went wrong.
    fn close(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// The generator seed of draw `draw` of a run seeded `seed`.
fn draw_seed(seed: u64, draw: u64) -> u64 {
    (seed << 24) ^ draw
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64, threads: usize) -> Result<Box<dyn Workload>, String> {
    let opts = Options {
        threads,
        ..Options::default()
    };
    let program = |(modules, functions): (usize, usize), s| {
        corpus::modules(&corpus::module_config(s, functions), modules)
    };
    Ok(match name {
        "table2-cold" => Box::new(Batch::new(seed, Box::new(corpus::table2), opts, "scan")),
        "hot-sinks" => Box::new(Batch::new(
            seed,
            Box::new(|s| corpus::hot_pool(s, HOT_PROGRAMS, HOT_SHAPE)),
            opts,
            "scan",
        )),
        "modules-sharded" => Box::new(Batch::new(
            seed,
            Box::new(move |s| {
                (0..SHARDED_PROGRAMS as u64)
                    .map(|p| program(SHARDED_PROGRAM, draw_seed(s, p)))
                    .collect()
            }),
            Options {
                shards: SHARDS,
                ..opts
            },
            "sharded_scan",
        )),
        "modules-serve" => Box::new(Serve::new(
            seed,
            Box::new(move |s| program(SERVE_PROGRAM, s)),
            opts,
        )),
        other => return Err(format!("unknown workload `{other}` ({})", NAMES.join(", "))),
    })
}

/// Mean source bytes of what was drawn.
#[derive(Default)]
struct Drawn {
    inputs: usize,
    bytes: usize,
}

impl Drawn {
    fn add(&mut self, inputs: &[Input]) {
        self.inputs += inputs.len();
        self.bytes += inputs.iter().map(|i| i.source.len()).sum::<usize>();
    }

    fn note(&self) -> String {
        format!(
            "{} inputs drawn, {} source bytes each on average",
            self.inputs,
            self.bytes / self.inputs.max(1)
        )
    }
}

fn compile_options(opts: &Options) -> CompileOptions {
    CompileOptions {
        loop_unroll: opts.unroll,
        recursion_unroll: opts.unroll,
    }
}

/// Times the front half of the pipeline through each layer's public
/// function: parse, lower, PDG, absint facts, compaction. Returns the
/// milliseconds of the parts a scan runs before its driver.
fn front_half(tr: &mut Tracer, source: &str, opts: &Options) -> Result<f64, String> {
    let t = Instant::now();
    let mut interner = Interner::new();
    let surface = tr
        .span("ir.parse", || parser::parse(source, &mut interner))
        .map_err(|e| format!("parse: {e}"))?;
    let program = tr
        .span("ir.lower", || {
            compile_ast(&surface, &mut interner, compile_options(opts))
        })
        .map_err(|e| format!("lower: {e}"))?;
    let pdg = tr.span("pdg.build", || Pdg::build(&program));
    let before_driver = t.elapsed();
    let (set, _) = effective_checkers(opts);
    let propagate = AnalysisOptions::new().propagate;
    black_box(tr.span("absint.compute", || ProgramFacts::compute(&program)));
    black_box(tr.span("compact.build", || {
        CompactPdg::build(&program, &pdg, &set, &propagate)
    }));
    Ok(before_driver.as_secs_f64() * 1e3)
}

/// Checks a report against the answer and fills in the record.
fn finish(mut rec: OpRecord, report: Result<ScanReport, String>, input: &Input) -> OpRecord {
    match report {
        Ok(mut r) => {
            rec.failure = input
                .expected
                .check(&r.findings)
                .err()
                .map(|e| format!("{}: {e}", input.name));
            rec.undecided = truth::undecided(&r.findings);
            rec.candidates = r.checkers.iter().map(|c| c.candidates).sum();
            if !rec.spans.is_empty() {
                // A batch scan's elapsed time covers its own front half;
                // a rescan's starts after compiling.
                rec.driver_ms = if rec.spans.iter().any(|s| s.name == "rescan") {
                    r.elapsed_ms
                } else {
                    (r.elapsed_ms - rec.front_ms).max(0.0)
                };
                r.findings = Vec::new();
                rec.report = Some(r);
            }
        }
        Err(e) => rec.failure = Some(format!("{}: {e}", input.name)),
    }
    rec
}

/// Runs `call`; returns its result and its heap high-water mark above
/// the bytes live before it.
fn heap_measured<R>(call: impl FnOnce() -> R) -> (R, usize) {
    let live = alloc::current();
    alloc::reset_peak();
    let out = call();
    (out, alloc::peak().saturating_sub(live))
}

/// Runs `call` as the operation's entry point: timed alone, or inside a
/// root span after the traced front half of `source`. Either way the
/// heap is measured around the call only.
fn run_op<R>(
    entry: &'static str,
    source: &str,
    opts: &Options,
    traced: bool,
    call: impl FnOnce() -> Result<R, String>,
) -> (OpRecord, Result<R, String>) {
    let mut rec = OpRecord::default();
    let cpu_before = cpu::process();
    if !traced {
        let t = Instant::now();
        let (out, peak) = heap_measured(call);
        rec.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        rec.cpu_ms = cpu::ms_since(cpu_before);
        rec.heap_op_peak = peak;
        return (rec, out);
    }
    let mut tr = Tracer::new();
    let root = tr.enter("op");
    let front = front_half(&mut tr, source, opts);
    let (out, peak) = tr.span(entry, || heap_measured(call));
    tr.exit(root);
    rec.cpu_ms = cpu::ms_since(cpu_before);
    rec.wall_ms = tr.spans()[root].duration().as_secs_f64() * 1e3;
    rec.spans = tr.spans().to_vec();
    rec.heap_op_peak = peak;
    match front {
        Ok(ms) => rec.front_ms = ms,
        Err(e) => return (rec, Err(e)),
    }
    (rec, out)
}

/// Cold scans through [`scan_source`], one operation per input of the
/// round's draw.
struct Batch {
    seed: u64,
    draw: Box<dyn Fn(u64) -> Vec<Input>>,
    draws: u64,
    rounds: u64,
    drawn: Drawn,
    inputs: Vec<Input>,
    opts: Options,
    entry: &'static str,
}

impl Batch {
    fn new(
        seed: u64,
        draw: Box<dyn Fn(u64) -> Vec<Input>>,
        opts: Options,
        entry: &'static str,
    ) -> Batch {
        Batch {
            seed,
            draw,
            draws: 0,
            rounds: 0,
            drawn: Drawn::default(),
            inputs: Vec::new(),
            opts,
            entry,
        }
    }

    fn draw_inputs(&mut self) {
        self.inputs = (self.draw)(draw_seed(self.seed, self.draws));
        self.draws += 1;
        self.drawn.add(&self.inputs);
    }
}

impl Workload for Batch {
    /// Every [`SETUP_EVERY`] rounds, first a warm-up pass over a draw of
    /// its own: the program keeps no state between scans, so its set-up
    /// is letting lazy initialization finish, and the first pass of the
    /// run is the cold one.
    fn next_round(&mut self) -> Vec<OpRecord> {
        let mut warm_up = Vec::new();
        if self.rounds.is_multiple_of(SETUP_EVERY) {
            self.draw_inputs();
            warm_up = (0..self.inputs.len()).map(|i| self.op(i, false)).collect();
        }
        self.rounds += 1;
        self.draw_inputs();
        warm_up
    }

    fn round_len(&self) -> usize {
        self.inputs.len()
    }

    fn op(&mut self, i: usize, traced: bool) -> OpRecord {
        let input = &self.inputs[i];
        let opts = &self.opts;
        let (rec, report) = run_op(self.entry, &input.source, opts, traced, || {
            scan_source(&input.source, opts).map_err(|e| e.0)
        });
        OpRecord {
            resident: input.source.len(),
            ..finish(rec, report, input)
        }
    }

    fn input_note(&self) -> String {
        let names: Vec<&str> = self.inputs.iter().map(|i| i.name.as_str()).collect();
        format!(
            "{} per round ({}); {}; threads={}, shards={}",
            self.inputs.len(),
            names.join(" "),
            self.drawn.note(),
            self.opts.threads,
            self.opts.shards
        )
    }
}

/// The state of one `--serve` session.
struct Session {
    client: ServeClient,
    input: Input,
    editor: Editor,
    /// Heap bytes the service held after its cold `scan`.
    resident: usize,
}

/// A `--serve` session per round: a fresh service filled by a cold `scan`
/// of a newly drawn program (set-up), then seeded single-function edits,
/// each answered by a `rescan`.
struct Serve {
    seed: u64,
    draw: Box<dyn Fn(u64) -> Input>,
    draws: u64,
    drawn: Drawn,
    opts: Options,
    session: Option<Session>,
}

impl Serve {
    fn new(seed: u64, draw: Box<dyn Fn(u64) -> Input>, opts: Options) -> Serve {
        Serve {
            seed,
            draw,
            draws: 0,
            drawn: Drawn::default(),
            opts,
            session: None,
        }
    }
}

impl Workload for Serve {
    /// Stops the previous service, starts a fresh one, and fills it with
    /// one cold `scan` of the next program.
    fn next_round(&mut self) -> Vec<OpRecord> {
        let stopped = self.close().err().map(|e| OpRecord {
            failure: Some(format!("shutdown: {e}")),
            ..OpRecord::default()
        });
        let seed = draw_seed(self.seed, self.draws);
        self.draws += 1;
        let input = (self.draw)(seed);
        self.drawn.add(std::slice::from_ref(&input));
        let request = ServeClient::scan_request("scan", &input.source);
        let live = alloc::current();
        let cpu_before = cpu::process();
        let t = Instant::now();
        let started = ServeClient::start(&self.opts);
        let line = started.and_then(|mut client| client.request(&request).map(|l| (client, l)));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = cpu::ms_since(cpu_before);
        let (client, report) = match line {
            Ok((client, line)) => {
                let resident = alloc::current().saturating_sub(live + line.capacity());
                (Some((client, resident)), parse_scan_response(&line))
            }
            Err(e) => (None, Err(e)),
        };
        let scan = finish(
            OpRecord {
                wall_ms,
                cpu_ms,
                ..OpRecord::default()
            },
            report,
            &input,
        );
        self.session = client.map(|(client, resident)| Session {
            client,
            editor: Editor::new(&input.source, seed),
            input,
            resident,
        });
        stopped.into_iter().chain([scan]).collect()
    }

    fn round_len(&self) -> usize {
        if self.session.is_some() {
            EDITS_PER_SESSION
        } else {
            0
        }
    }

    /// Times the `rescan` until its response line arrives; the response
    /// is decoded afterwards.
    fn op(&mut self, _: usize, traced: bool) -> OpRecord {
        let s = self.session.as_mut().expect("a round starts a session");
        let (edited, source) = s.editor.next_edit();
        let request = ServeClient::scan_request("rescan", &source);
        let client = &mut s.client;
        let (rec, line) = run_op("rescan", &source, &self.opts, traced, || {
            client.request(&request)
        });
        let report = line.and_then(|line| parse_scan_response(&line));
        let mut rec = OpRecord {
            resident: s.resident,
            ..finish(rec, report, &s.input)
        };
        if let Some(f) = &mut rec.failure {
            f.push_str(&format!(" (after editing {edited})"));
        }
        rec
    }

    fn input_note(&self) -> String {
        format!(
            "{EDITS_PER_SESSION} single-function edits per session; {}; threads={}",
            self.drawn.note(),
            self.opts.threads
        )
    }

    fn close(&mut self) -> Result<(), String> {
        self.session.take().map_or(Ok(()), |s| s.client.shutdown())
    }
}
