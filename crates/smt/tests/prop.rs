//! Property-based tests for the SMT substrate.
//!
//! Strategy: generate random boolean formulas over a handful of 4-bit
//! variables, small enough that *brute-force enumeration* of all
//! assignments is feasible and serves as independent ground truth. Then:
//!
//! * `smt_solve` (preprocess + bit-blast + CDCL) must agree with brute
//!   force;
//! * every preprocessing pass must preserve satisfiability of the
//!   existential closure (the pass may introduce fresh variables — they are
//!   existential too);
//! * quantifier elimination must preserve satisfiability;
//! * the fragment pipelines (`preprocess_protected`,
//!   `preprocess_fragment_seeded_ext`) must keep the formula's projection
//!   onto a random protected set: for every assignment of the protected
//!   variables, φ is satisfiable exactly when pre(φ) is;
//! * the pipelines stop below their round cap, at a fixpoint: running
//!   the pipeline or any of its passes again on the output returns the
//!   same term.

use fusion_smt::egraph::EGraphConfig;
use fusion_smt::fxhash::FxHashSet;
use fusion_smt::preprocess::{
    eliminate_unconstrained, eliminate_unconstrained_protected, gaussian_eliminate,
    gaussian_eliminate_protected, preprocess, preprocess_fragment_seeded_ext, preprocess_protected,
    propagate_constants, propagate_constants_protected, propagate_equalities,
    propagate_equalities_protected, reduce_strength, refute_by_known_bits, simplify, BitsSeeds,
    MAX_ROUNDS,
};
use fusion_smt::solver::{smt_solve, SolverConfig};
use fusion_smt::tactic::quantifier_eliminate;
use fusion_smt::term::{BvOp, BvPred, Sort, TermId, TermKind, TermPool, Value, VarIdx};
use proptest::prelude::*;
use std::collections::HashMap;

const W: u32 = 4;
const NVARS: usize = 3;

/// A compact recipe for building a random formula inside a fresh pool.
#[derive(Debug, Clone)]
enum Ast {
    Var(u8),
    Const(u8),
    Bv(u8, Box<Ast>, Box<Ast>),
    Ite(Box<Ast>, Box<Ast>, Box<Ast>),
}

#[derive(Debug, Clone)]
enum BoolAst {
    Eq(Ast, Ast),
    Pred(u8, Ast, Ast),
    Not(Box<BoolAst>),
    And(Vec<BoolAst>),
    Or(Vec<BoolAst>),
}

fn ast_strategy() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        (0..NVARS as u8).prop_map(Ast::Var),
        (0..16u8).prop_map(Ast::Const),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (0..11u8, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Ast::Bv(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| Ast::Ite(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn bool_strategy() -> impl Strategy<Value = BoolAst> {
    let leaf = prop_oneof![
        (ast_strategy(), ast_strategy()).prop_map(|(a, b)| BoolAst::Eq(a, b)),
        (0..4u8, ast_strategy(), ast_strategy()).prop_map(|(p, a, b)| BoolAst::Pred(p, a, b)),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|b| BoolAst::Not(Box::new(b))),
            prop::collection::vec(inner.clone(), 2..4).prop_map(BoolAst::And),
            prop::collection::vec(inner, 2..4).prop_map(BoolAst::Or),
        ]
    })
}

fn build_bv(pool: &mut TermPool, ast: &Ast) -> TermId {
    match ast {
        Ast::Var(i) => pool.var(&format!("v{i}"), Sort::Bv(W)),
        Ast::Const(c) => pool.bv_const(*c as u64, W),
        Ast::Bv(op, a, b) => {
            let ops = [
                BvOp::Add,
                BvOp::Sub,
                BvOp::Mul,
                BvOp::Udiv,
                BvOp::Urem,
                BvOp::And,
                BvOp::Or,
                BvOp::Xor,
                BvOp::Shl,
                BvOp::Lshr,
                BvOp::Ashr,
            ];
            let a = build_bv(pool, a);
            let b = build_bv(pool, b);
            pool.bv(ops[*op as usize % ops.len()], a, b)
        }
        Ast::Ite(c, a, b) => {
            let c = build_bv(pool, c);
            let zero = pool.bv_const(0, W);
            let cb = pool.ne(c, zero);
            let a = build_bv(pool, a);
            let b = build_bv(pool, b);
            pool.ite(cb, a, b)
        }
    }
}

fn build_bool(pool: &mut TermPool, ast: &BoolAst) -> TermId {
    match ast {
        BoolAst::Eq(a, b) => {
            let a = build_bv(pool, a);
            let b = build_bv(pool, b);
            pool.eq(a, b)
        }
        BoolAst::Pred(p, a, b) => {
            let preds = [BvPred::Ult, BvPred::Ule, BvPred::Slt, BvPred::Sle];
            let a = build_bv(pool, a);
            let b = build_bv(pool, b);
            pool.pred(preds[*p as usize % preds.len()], a, b)
        }
        BoolAst::Not(b) => {
            let b = build_bool(pool, b);
            pool.not(b)
        }
        BoolAst::And(xs) => {
            let xs: Vec<TermId> = xs.iter().map(|x| build_bool(pool, x)).collect();
            pool.and(&xs)
        }
        BoolAst::Or(xs) => {
            let xs: Vec<TermId> = xs.iter().map(|x| build_bool(pool, x)).collect();
            pool.or(&xs)
        }
    }
}

/// Brute-force satisfiability over all assignments to the free variables.
fn brute_force_sat(pool: &TermPool, t: TermId) -> bool {
    let vars = pool.free_vars(t);
    let n = vars.len();
    assert!(n <= 6, "too many vars for brute force");
    let total = 1u64 << (W as u64 * n as u64);
    for bits in 0..total {
        let mut env = HashMap::new();
        for (i, &v) in vars.iter().enumerate() {
            env.insert(v, (bits >> (W as u64 * i as u64)) & ((1 << W) - 1));
        }
        if pool.eval(t, &env) == Value::Bool(true) {
            return true;
        }
    }
    false
}

/// Bits a variable ranges over (booleans: one).
fn var_bits(pool: &TermPool, v: VarIdx) -> u32 {
    match pool.var_sort(v) {
        Sort::Bool => 1,
        Sort::Bv(w) => w,
    }
}

/// Calls `f` with every assignment of `vars` layered over `base`.
fn for_each_assignment(
    pool: &TermPool,
    vars: &[VarIdx],
    base: &HashMap<VarIdx, u64>,
    f: &mut dyn FnMut(&HashMap<VarIdx, u64>) -> bool,
) -> bool {
    let total: u32 = vars.iter().map(|&v| var_bits(pool, v)).sum();
    assert!(total <= 20, "too many bits for brute force");
    for bits in 0..1u64 << total {
        let mut env = base.clone();
        let mut shift = 0;
        for &v in vars {
            let w = var_bits(pool, v);
            env.insert(v, (bits >> shift) & ((1 << w) - 1));
            shift += w;
        }
        if f(&env) {
            return true;
        }
    }
    false
}

/// For each assignment of `protected` (in enumeration order): whether some
/// assignment of `t`'s other free variables satisfies `t`.
fn projection(pool: &TermPool, t: TermId, protected: &[VarIdx]) -> Vec<bool> {
    let others: Vec<VarIdx> = pool
        .free_vars(t)
        .into_iter()
        .filter(|v| !protected.contains(v))
        .collect();
    let mut out = Vec::new();
    for_each_assignment(pool, protected, &HashMap::new(), &mut |env| {
        out.push(for_each_assignment(pool, &others, env, &mut |full| {
            pool.eval(t, full) == Value::Bool(true)
        }));
        false
    });
    out
}

/// The free variables of `t` picked by the bits of `mask`, as a list and
/// as the set the pipelines take.
fn protected_subset(pool: &TermPool, t: TermId, mask: u8) -> (Vec<VarIdx>, FxHashSet<VarIdx>) {
    let picked: Vec<VarIdx> = pool
        .free_vars(t)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v)
        .collect();
    let set = picked.iter().copied().collect();
    (picked, set)
}

/// Whether the fresh variables `t` gained over its original stay
/// enumerable next to the protected ones.
fn small_enough(pool: &TermPool, t: TermId) -> bool {
    pool.free_vars(t)
        .iter()
        .map(|&v| var_bits(pool, v))
        .sum::<u32>()
        <= 16
}

/// Pass `i` of the pipelines' schedule, in its protected variant.
fn run_pass(pool: &mut TermPool, i: usize, t: TermId, protected: &FxHashSet<VarIdx>) -> TermId {
    match i {
        0 => reduce_strength(pool, t),
        1 => refute_by_known_bits(pool, t),
        2 => propagate_constants_protected(pool, t, protected),
        3 => propagate_equalities_protected(pool, t, protected),
        4 => gaussian_eliminate_protected(pool, t, protected),
        _ => eliminate_unconstrained_protected(pool, t, protected),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn protected_pipeline_keeps_the_projection(ast in bool_strategy(), mask in 0u8..8) {
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let (picked, protected) = protected_subset(&pool, f, mask);
        let expected = projection(&pool, f, &picked);
        let pre = preprocess_protected(&mut pool, f, &protected);
        prop_assume!(small_enough(&pool, pre.term));
        prop_assert_eq!(projection(&pool, pre.term, &picked), expected,
            "orig {} pre {}", pool.display(f), pool.display(pre.term));
    }

    #[test]
    fn fragment_pipeline_keeps_the_projection(ast in bool_strategy(), mask in 0u8..8) {
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let (picked, protected) = protected_subset(&pool, f, mask);
        let expected = projection(&pool, f, &picked);
        let (pre, _) = preprocess_fragment_seeded_ext(
            &mut pool, f, &protected, &BitsSeeds::new(), &EGraphConfig::default());
        prop_assume!(small_enough(&pool, pre.term));
        prop_assert_eq!(projection(&pool, pre.term, &picked), expected,
            "orig {} pre {}", pool.display(f), pool.display(pre.term));
    }

    #[test]
    fn pipelines_stop_at_a_fixpoint_below_the_round_cap(ast in bool_strategy(), mask in 0u8..8) {
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let (_, protected) = protected_subset(&pool, f, mask);
        let pre = preprocess_protected(&mut pool, f, &protected);
        prop_assert!(pre.rounds < MAX_ROUNDS, "{}", pool.display(f));
        let again = preprocess_protected(&mut pool, pre.term, &protected);
        prop_assert_eq!(again.term, pre.term, "protected: {}", pool.display(pre.term));
        for pass in 0..6 {
            let out = run_pass(&mut pool, pass, pre.term, &protected);
            prop_assert_eq!(out, pre.term, "pass {} moved {}", pass, pool.display(pre.term));
        }

        // The fragment pipeline runs every pass but unconstrained-variable
        // elimination. Its e-graph leg is bounded saturation, which on the
        // smaller output of one run can find rewrites it missed on the
        // input, so idempotence is checked with the leg off; with it on,
        // the output must still be a fixpoint of every pass.
        let seeds = BitsSeeds::new();
        for egraph in [EGraphConfig::disabled(), EGraphConfig::default()] {
            let (pre, _) =
                preprocess_fragment_seeded_ext(&mut pool, f, &protected, &seeds, &egraph);
            prop_assert!(pre.rounds < MAX_ROUNDS, "{}", pool.display(f));
            if !egraph.enabled {
                let (again, _) =
                    preprocess_fragment_seeded_ext(&mut pool, pre.term, &protected, &seeds, &egraph);
                prop_assert_eq!(again.term, pre.term, "fragment: {}", pool.display(pre.term));
            }
            for pass in 0..5 {
                let out = run_pass(&mut pool, pass, pre.term, &protected);
                prop_assert_eq!(out, pre.term, "pass {} moved {}", pass, pool.display(pre.term));
            }
        }
    }

    #[test]
    fn solver_agrees_with_brute_force(ast in bool_strategy()) {
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let expected = brute_force_sat(&pool, f);
        let (result, _) = smt_solve(&mut pool, f, &SolverConfig::default());
        prop_assert_eq!(result.is_sat(), expected, "formula: {}", pool.display(f));
        prop_assert_eq!(result.is_unsat(), !expected);
    }

    #[test]
    fn preprocessing_is_equisatisfiable(ast in bool_strategy()) {
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let expected = brute_force_sat(&pool, f);
        let pre = preprocess(&mut pool, f);
        prop_assert!(pool.free_vars(pre.term).len() <= 6);
        let got = brute_force_sat(&pool, pre.term);
        prop_assert_eq!(got, expected, "orig: {} pre: {}", pool.display(f), pool.display(pre.term));
    }

    #[test]
    fn each_pass_is_equisatisfiable(ast in bool_strategy(), pass in 0..5usize) {
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let expected = brute_force_sat(&pool, f);
        let out = match pass {
            0 => propagate_constants(&mut pool, f),
            1 => propagate_equalities(&mut pool, f),
            2 => gaussian_eliminate(&mut pool, f),
            3 => reduce_strength(&mut pool, f),
            _ => eliminate_unconstrained(&mut pool, f),
        };
        prop_assume!(pool.free_vars(out).len() <= 6);
        let got = brute_force_sat(&pool, out);
        prop_assert_eq!(got, expected,
            "pass {}: orig {} out {}", pass, pool.display(f), pool.display(out));
    }

    #[test]
    fn simplify_is_equivalent_not_just_equisat(ast in bool_strategy()) {
        // LFS rebuild must be a logical equivalence: same value under every
        // assignment (no fresh vars, no elimination).
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let s = simplify(&mut pool, f);
        let vars = pool.free_vars(f);
        let total = 1u64 << (W as u64 * vars.len() as u64);
        for bits in 0..total {
            let mut env = HashMap::new();
            for (i, &v) in vars.iter().enumerate() {
                env.insert(v, (bits >> (W as u64 * i as u64)) & ((1 << W) - 1));
            }
            prop_assert_eq!(pool.eval(f, &env), pool.eval(s, &env));
        }
    }

    #[test]
    fn qe_preserves_satisfiability(ast in bool_strategy()) {
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let expected = brute_force_sat(&pool, f);
        // Eliminate v0 if present.
        let vars = pool.free_vars(f);
        prop_assume!(!vars.is_empty());
        let target = vars[0];
        // Err(_) — blow-up — is a legal outcome; only Ok is checked.
        if let Ok(out) = quantifier_eliminate(&mut pool, f, &[target], 1_000_000) {
            prop_assert!(!pool.free_vars(out).contains(&target));
            prop_assume!(pool.free_vars(out).len() <= 6);
            let got = brute_force_sat(&pool, out);
            prop_assert_eq!(got, expected,
                "qe: orig {} out {}", pool.display(f), pool.display(out));
        }
    }

    #[test]
    fn eval_and_blast_agree_pointwise(ast in bool_strategy(), seed in 0u64..1u64<<(W as u64 * NVARS as u64)) {
        // Pin the variables to concrete values with equality conjuncts; the
        // solver must then return exactly the evaluator's verdict.
        let mut pool = TermPool::new();
        let f = build_bool(&mut pool, &ast);
        let vars = pool.free_vars(f);
        let mut env = HashMap::new();
        let mut parts = vec![f];
        for (i, &v) in vars.iter().enumerate() {
            let val = (seed >> (W as u64 * i as u64)) & ((1 << W) - 1);
            env.insert(v, val);
            let name = pool.var_name(v).to_owned();
            let vt = pool.var(&name, Sort::Bv(W));
            let k = pool.bv_const(val, W);
            let e = pool.eq(vt, k);
            parts.push(e);
        }
        let expected = pool.eval(f, &env) == Value::Bool(true);
        let pinned = pool.and(&parts);
        let (result, _) = smt_solve(&mut pool, pinned, &SolverConfig::default());
        prop_assert_eq!(result.is_sat(), expected);
    }
}

/// Deterministic regression corner cases distilled from the strategies.
#[test]
fn regression_division_corner_cases() {
    let mut pool = TermPool::new();
    let x = pool.var("x", Sort::Bv(W));
    let zero = pool.bv_const(0, W);
    let y = pool.var("y", Sort::Bv(W));
    // (x / y) with y possibly 0 — pinned both ways.
    let q = pool.bv(BvOp::Udiv, x, y);
    let ones = pool.bv_const(15, W);
    let qe = pool.eq(q, ones);
    let yz = pool.eq(y, zero);
    let f = pool.and2(qe, yz);
    assert!(brute_force_sat(&pool, f));
    let (r, _) = smt_solve(&mut pool, f, &SolverConfig::default());
    assert!(r.is_sat());
}

#[test]
fn regression_signed_shift_agreement() {
    let mut pool = TermPool::new();
    let x = pool.var("x", Sort::Bv(W));
    let c1 = pool.bv_const(1, W);
    let sh = pool.bv(BvOp::Ashr, x, c1);
    let c = pool.bv_const(0xC, W); // 0b1100 = -4 signed
    let e1 = pool.eq(sh, c);
    let expected = brute_force_sat(&pool, e1);
    let (r, _) = smt_solve(&mut pool, e1, &SolverConfig::default());
    assert_eq!(r.is_sat(), expected);
}

#[test]
fn regression_nested_ite_chain() {
    let mut pool = TermPool::new();
    let a = pool.var("a", Sort::Bv(W));
    let b = pool.var("b", Sort::Bv(W));
    let zero = pool.bv_const(0, W);
    let c = pool.ne(a, zero);
    let i1 = pool.ite(c, a, b);
    let i2 = pool.ite(c, i1, zero);
    let nonzero = pool.ne(i2, zero);
    let is_zero_a = pool.eq(a, zero);
    let f = pool.and2(nonzero, is_zero_a);
    // a = 0 forces c false, i2 = 0 → contradiction.
    assert!(!brute_force_sat(&pool, f));
    let (r, _) = smt_solve(&mut pool, f, &SolverConfig::default());
    assert!(r.is_unsat());
}

#[test]
fn regression_unconstrained_under_negation() {
    // ¬(x + t = d) with x singleton: still equisatisfiable after UVE
    // because x is existential regardless of polarity.
    let mut pool = TermPool::new();
    let x = pool.var("x", Sort::Bv(W));
    let t = pool.var("t", Sort::Bv(W));
    let d = pool.var("d", Sort::Bv(W));
    let sum = pool.bv(BvOp::Add, x, t);
    let e = pool.eq(sum, d);
    let f = pool.not(e);
    let expected = brute_force_sat(&pool, f);
    let out = eliminate_unconstrained(&mut pool, f);
    let got = match pool.kind(out) {
        TermKind::BoolConst(b) => *b,
        _ => brute_force_sat(&pool, out),
    };
    assert_eq!(got, expected);
}
