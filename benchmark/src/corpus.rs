//! The benchmark's inputs, generated from the workload seed, each with
//! its independent answer.

use crate::truth::{Count, Expected};
use fusion_workloads::{generate, generate_multi, GenConfig, GeneratedSubject, SUBJECTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// One program to scan and the findings it must produce.
pub struct Input {
    /// Display name.
    pub name: String,
    /// Source text, as `fusion-scan FILE` would read it.
    pub source: String,
    /// The answer.
    pub expected: Expected,
}

/// Spreads a workload seed over a generator seed's bits.
fn mix(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Scale of the Table-2 subjects (fraction of the paper's line count).
pub const TABLE2_SCALE: f64 = 0.002;

/// Feasible seeds of `subject`, checker names as the scanner prints
/// them, each host function renamed by `rename`.
fn seeded_answer(subject: &GeneratedSubject, rename: impl Fn(&str) -> String, into: &mut Expected) {
    for bug in subject.bugs.iter().filter(|b| b.feasible) {
        let name = |s| rename(subject.interner.resolve(s));
        let key = (
            bug.kind.to_string(),
            name(bug.site.source_fn),
            name(bug.site.sink_fn),
        );
        into.add(key, Count::AtLeastOne);
    }
}

/// The 16 Table-2 subjects at [`TABLE2_SCALE`], answered by their
/// seeded bugs.
pub fn table2(seed: u64) -> Vec<Input> {
    SUBJECTS
        .iter()
        .map(|spec| {
            let mut cfg = spec.gen_config(TABLE2_SCALE);
            cfg.seed = mix(cfg.seed, seed);
            let subject = generate(&cfg);
            let mut expected = Expected::default();
            seeded_answer(&subject, str::to_owned, &mut expected);
            Input {
                name: spec.name.to_string(),
                source: subject.to_source(),
                expected,
            }
        })
        .collect()
}

/// Generator shape of one module of the multi-module program.
pub fn module_config(seed: u64, functions: usize) -> GenConfig {
    GenConfig {
        seed: mix(0x5AAD, seed),
        functions,
        stmts_per_function: 60,
        branch_density: 0.3,
        null_feasible: 4,
        null_infeasible: 12,
        cwe23_feasible: 2,
        cwe23_infeasible: 6,
        cwe402_feasible: 2,
        cwe402_infeasible: 6,
        ..GenConfig::default()
    }
}

/// The `generate_multi` program, answered by re-generating module `m`
/// from `seed + m` and applying its `m{m}_` prefix.
pub fn modules(cfg: &GenConfig, modules: usize) -> Input {
    let mut expected = Expected::default();
    for m in 0..modules {
        let subject = generate(&GenConfig {
            seed: cfg.seed.wrapping_add(m as u64),
            ..cfg.clone()
        });
        seeded_answer(&subject, |s| format!("m{m}_{s}"), &mut expected);
    }
    Input {
        name: format!("{modules}x{}", cfg.functions),
        source: generate_multi(cfg, modules),
        expected,
    }
}

/// `churn(a, b)` of the hot-sinks programs, in the language's wrapping
/// 32-bit arithmetic.
fn churn(a: u32, b: u32) -> u32 {
    let t = a.wrapping_mul(b);
    let u = t.wrapping_mul(t).wrapping_add(a);
    let v = u.wrapping_mul(b).wrapping_add(t);
    v.wrapping_mul(v).wrapping_add(u)
}

/// Shape of one hot-sinks program.
#[derive(Debug, Clone, Copy)]
pub struct HotShape {
    /// Hot functions.
    pub functions: usize,
    /// Feasible guards per function.
    pub feasible: usize,
    /// Infeasible guards per function.
    pub infeasible: usize,
}

/// A program of independent hot functions whose null-dereference sinks
/// sit behind multiplications. Feasible guards compare `churn(x, y)`
/// with its value at a seeded witness input, so they hold at that input.
/// Infeasible guards compare a square with `4k + 3`, a value no square
/// takes modulo 2^32 (squares are 0 or 1 modulo 4). The answer is the
/// number of feasible guards per function.
pub fn hot_sinks(rng: &mut StdRng, tag: usize, shape: HotShape) -> Input {
    let mut s = String::from("extern fn deref(p);\n");
    let mut expected = Expected::default();
    for f in 0..shape.functions {
        let _ = writeln!(
            s,
            "fn churn{f}(a, b) {{ let t = a * b; let u = t * t + a; \
             let v = u * b + t; let z = v * v + u; return z; }}"
        );
        let _ = writeln!(s, "fn hot{f}(x, y) {{\n  let w = churn{f}(x, y);");
        let mut guards: Vec<String> = (0..shape.feasible)
            .map(|_| format!("w == {}", churn(rng.gen(), rng.gen())))
            .collect();
        guards.extend((0..shape.infeasible).map(|_| {
            let c: u32 = rng.gen_range(0..1000);
            let k: u32 = rng.gen_range(0..(1 << 29));
            format!("(w + {c}) * (w + {c}) == {}", 4 * k + 3)
        }));
        // Interleave so feasible and infeasible sinks share the slice.
        for i in (1..guards.len()).rev() {
            guards.swap(i, rng.gen_range(0..i + 1));
        }
        for (k, g) in guards.iter().enumerate() {
            let _ = writeln!(
                s,
                "  let q{k} = null; let r{k} = 1; if ({g}) {{ r{k} = q{k}; }} deref(r{k});"
            );
        }
        let _ = writeln!(s, "  return 0;\n}}");
        let host = format!("hot{f}");
        expected.add(
            ("null-deref".into(), host.clone(), host),
            Count::Exactly(shape.feasible),
        );
    }
    Input {
        name: format!("hot-{tag}"),
        source: s,
        expected,
    }
}

/// A pool of hot-sinks programs drawn from `seed`.
pub fn hot_pool(seed: u64, programs: usize, shape: HotShape) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(mix(0x0407_5155, seed));
    (0..programs)
        .map(|i| hot_sinks(&mut rng, i, shape))
        .collect()
}

/// Seeded, uniformly random single-function edits of a program: each
/// inserts a fresh unused `let` at the top of one non-extern function,
/// which changes that function's content without changing any finding.
/// Edits accumulate, so consecutive versions differ in one function.
pub struct Editor {
    lines: Vec<String>,
    headers: Vec<usize>,
    rng: StdRng,
    edits: usize,
}

impl Editor {
    /// Edits of `source`, drawn from `seed`.
    pub fn new(source: &str, seed: u64) -> Editor {
        let lines: Vec<String> = source.lines().map(str::to_owned).collect();
        let headers = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.starts_with("fn ") && l.ends_with('{'))
            .map(|(i, _)| i)
            .collect();
        Editor {
            lines,
            headers,
            rng: StdRng::seed_from_u64(mix(0xED17, seed)),
            edits: 0,
        }
    }

    /// Applies the next edit; returns the edited function's name and the
    /// new source text.
    pub fn next_edit(&mut self) -> (String, String) {
        assert!(!self.headers.is_empty(), "program has no function bodies");
        let line = self.headers[self.rng.gen_range(0..self.headers.len())];
        let n = self.edits;
        self.edits += 1;
        self.lines[line].push_str(&format!(" let bench_edit_{n} = {n};"));
        let header = &self.lines[line];
        let name = header["fn ".len()..header.find('(').expect("header has params")].to_owned();
        let mut text = self.lines.join("\n");
        text.push('\n');
        (name, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_cli::{scan_source, Options};

    #[test]
    fn churn_matches_the_interpreter() {
        let mut rng = StdRng::seed_from_u64(3);
        let input = hot_sinks(
            &mut rng,
            0,
            HotShape {
                functions: 1,
                feasible: 1,
                infeasible: 0,
            },
        );
        let mut interner = fusion_ir::Interner::new();
        let surface = fusion_ir::parser::parse(&input.source, &mut interner).unwrap();
        let churn0 = interner.intern("churn0");
        for (a, b) in [(0u32, 0u32), (7, 9), (u32::MAX, 12345), (0x8000_0000, 3)] {
            let got =
                fusion_ir::interp::eval_surface(&surface, &interner, churn0, &[a, b], 2, 10_000);
            assert_eq!(
                got.map(|(v, _)| v).ok(),
                Some(churn(a, b)),
                "churn({a}, {b})"
            );
        }
    }

    #[test]
    fn tiny_instances_scan_to_their_answers() {
        let opts = Options::default();
        let hot = hot_pool(
            1,
            1,
            HotShape {
                functions: 2,
                feasible: 1,
                infeasible: 1,
            },
        );
        let tiny = modules(&module_config(1, 3), 2);
        for input in hot.iter().chain([&tiny]) {
            let report = scan_source(&input.source, &opts).unwrap();
            assert!(!report.findings.is_empty(), "{}", input.name);
            input.expected.check(&report.findings).unwrap();
        }
        // Dropping one finding is caught.
        let mut report = scan_source(&tiny.source, &opts).unwrap();
        report.findings.pop();
        assert!(tiny.expected.check(&report.findings).is_err());
    }

    #[test]
    fn edits_touch_one_function_and_keep_the_answer() {
        let input = modules(&module_config(2, 3), 2);
        let mut editor = Editor::new(&input.source, 5);
        let (name, once) = editor.next_edit();
        let (_, twice) = editor.next_edit();
        assert!(name.starts_with('m'), "{name}");
        assert_eq!(once.lines().count(), input.source.lines().count());
        assert!(once.contains("let bench_edit_0 = 0;"));
        assert!(twice.contains("let bench_edit_1 = 1;"));
        let report = scan_source(&twice, &Options::default()).unwrap();
        input.expected.check(&report.findings).unwrap();
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let shape = HotShape {
            functions: 1,
            feasible: 2,
            infeasible: 2,
        };
        assert_eq!(
            hot_pool(4, 2, shape)[1].source,
            hot_pool(4, 2, shape)[1].source
        );
        assert_ne!(
            hot_pool(4, 1, shape)[0].source,
            hot_pool(5, 1, shape)[0].source
        );
        let a = table2(9);
        assert_eq!(a.len(), 16);
        assert_eq!(a[3].source, table2(9)[3].source);
        assert_ne!(a[3].source, table2(10)[3].source);
    }
}
