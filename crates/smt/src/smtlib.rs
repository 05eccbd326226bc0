//! SMT-LIB 2 export.
//!
//! Emits any boolean term as a standard `QF_BV` script so conditions built
//! by this crate can be cross-checked with an external solver (Z3, cvc5,
//! Bitwuzla, ...). Useful both for downstream users who want a second
//! opinion and for debugging the reproduction against the solver the paper
//! used.

use crate::term::{BvOp, BvPred, Sort, TermId, TermKind, TermPool};
use std::collections::HashMap;
use std::fmt::Write as _;

fn sort_smt(sort: Sort) -> String {
    match sort {
        Sort::Bool => "Bool".to_owned(),
        Sort::Bv(w) => format!("(_ BitVec {w})"),
    }
}

fn op_smt(op: BvOp) -> &'static str {
    match op {
        BvOp::Add => "bvadd",
        BvOp::Sub => "bvsub",
        BvOp::Mul => "bvmul",
        BvOp::Udiv => "bvudiv",
        BvOp::Urem => "bvurem",
        BvOp::And => "bvand",
        BvOp::Or => "bvor",
        BvOp::Xor => "bvxor",
        BvOp::Shl => "bvshl",
        BvOp::Lshr => "bvlshr",
        BvOp::Ashr => "bvashr",
    }
}

fn pred_smt(p: BvPred) -> &'static str {
    match p {
        BvPred::Ult => "bvult",
        BvPred::Ule => "bvule",
        BvPred::Slt => "bvslt",
        BvPred::Sle => "bvsle",
    }
}

/// SMT-LIB identifiers: quote anything beyond `[A-Za-z0-9_]` with `|...|`.
fn ident(name: &str) -> String {
    if !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        && !name.starts_with(|c: char| c.is_ascii_digit())
    {
        name.to_owned()
    } else {
        format!("|{name}|")
    }
}

/// Emits `formula` as a complete SMT-LIB 2 script: `set-logic QF_BV`,
/// sorted declarations for every free variable, named `let`-bindings for
/// shared subterms (preserving the DAG's structural sharing), one
/// `assert`, and `check-sat`.
///
/// # Panics
///
/// Panics if `formula` is not boolean-sorted.
pub fn to_smtlib2(pool: &TermPool, formula: TermId) -> String {
    assert_eq!(
        pool.sort(formula),
        Sort::Bool,
        "to_smtlib2: formula must be Bool"
    );
    let mut out = String::from("(set-logic QF_BV)\n");
    let mut vars = pool.free_vars(formula);
    vars.sort_unstable();
    for v in vars {
        let _ = writeln!(
            out,
            "(declare-const {} {})",
            ident(pool.var_name(v)),
            sort_smt(pool.var_sort(v))
        );
    }
    // Count references to decide which nodes earn a let binding.
    let mut refs: HashMap<TermId, u32> = HashMap::new();
    let mut stack = vec![formula];
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        *refs.entry(t).or_insert(0) += 1;
        if seen.insert(t) {
            stack.extend(pool.children(t));
        }
    }
    // Expression rendering is iterative (explicit token stack, no
    // recursion): deep unshared chains — exactly what engine-built
    // conditions look like before simplification — must not overflow the
    // stack, and the text is written straight into one buffer so the
    // script stays linear in DAG size.
    enum Tok {
        Term(TermId),
        Text(&'static str),
    }
    fn expr(pool: &TermPool, root: TermId, bound: &HashMap<TermId, String>) -> String {
        let mut out = String::new();
        let mut stack = vec![Tok::Term(root)];
        while let Some(tok) = stack.pop() {
            let t = match tok {
                Tok::Text(s) => {
                    out.push_str(s);
                    continue;
                }
                Tok::Term(t) => t,
            };
            if let Some(name) = bound.get(&t) {
                out.push_str(name);
                continue;
            }
            // Non-leaf nodes push their pieces in reverse so children pop
            // in left-to-right order.
            match pool.kind(t) {
                TermKind::BoolConst(b) => {
                    let _ = write!(out, "{b}");
                }
                TermKind::BvConst { width, value } => {
                    let _ = write!(out, "(_ bv{value} {width})");
                }
                TermKind::Var(v) => out.push_str(&ident(pool.var_name(*v))),
                TermKind::Not(x) => {
                    out.push_str("(not ");
                    stack.push(Tok::Text(")"));
                    stack.push(Tok::Term(*x));
                }
                TermKind::And(xs) | TermKind::Or(xs) => {
                    let opener = if matches!(pool.kind(t), TermKind::And(_)) {
                        "(and "
                    } else {
                        "(or "
                    };
                    out.push_str(opener);
                    stack.push(Tok::Text(")"));
                    for (i, &x) in xs.iter().enumerate().rev() {
                        stack.push(Tok::Term(x));
                        if i > 0 {
                            stack.push(Tok::Text(" "));
                        }
                    }
                }
                TermKind::Eq(a, b) => {
                    out.push_str("(= ");
                    stack.push(Tok::Text(")"));
                    stack.push(Tok::Term(*b));
                    stack.push(Tok::Text(" "));
                    stack.push(Tok::Term(*a));
                }
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                } => {
                    out.push_str("(ite ");
                    stack.push(Tok::Text(")"));
                    stack.push(Tok::Term(*else_t));
                    stack.push(Tok::Text(" "));
                    stack.push(Tok::Term(*then_t));
                    stack.push(Tok::Text(" "));
                    stack.push(Tok::Term(*cond));
                }
                TermKind::Bv(op, a, b) => {
                    let _ = write!(out, "({} ", op_smt(*op));
                    stack.push(Tok::Text(")"));
                    stack.push(Tok::Term(*b));
                    stack.push(Tok::Text(" "));
                    stack.push(Tok::Term(*a));
                }
                TermKind::Pred(p, a, b) => {
                    let _ = write!(out, "({} ", pred_smt(*p));
                    stack.push(Tok::Text(")"));
                    stack.push(Tok::Term(*b));
                    stack.push(Tok::Text(" "));
                    stack.push(Tok::Term(*a));
                }
            }
        }
        out
    }
    // Bind shared non-leaf nodes bottom-up (iterative post-order over the
    // DAG — again recursion-free) so a cloned-condition script stays
    // linear in DAG size.
    let mut order: Vec<TermId> = Vec::new();
    let mut seen2 = std::collections::HashSet::new();
    let mut walk: Vec<(TermId, bool)> = vec![(formula, false)];
    while let Some((t, expanded)) = walk.pop() {
        if expanded {
            order.push(t);
            continue;
        }
        if !seen2.insert(t) {
            continue;
        }
        walk.push((t, true));
        for c in pool.children(t).rev() {
            if !seen2.contains(&c) {
                walk.push((c, false));
            }
        }
    }
    let mut bound: HashMap<TermId, String> = HashMap::new();
    let mut lets: Vec<(String, String)> = Vec::new();
    for &t in &order {
        let shared = refs.get(&t).copied().unwrap_or(0) > 1;
        let leafy = matches!(
            pool.kind(t),
            TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var(_)
        );
        if shared && !leafy && t != formula {
            let name = format!("?n{}", t.0);
            let body = expr(pool, t, &bound);
            lets.push((name.clone(), body));
            bound.insert(t, name);
        }
    }
    // Nest the bindings without re-copying the body per level (a heavily
    // shared DAG can earn thousands of lets): emit every `(let (...)` in
    // definition order — the deepest binding is outermost, exactly the
    // nesting right-fold wrapping would produce — then the root, then all
    // the closing parens at once.
    let root = expr(pool, formula, &bound);
    out.push_str("(assert ");
    for (name, def) in &lets {
        let _ = write!(out, "(let (({name} {def})) ");
    }
    out.push_str(&root);
    for _ in &lets {
        out.push(')');
    }
    out.push_str(")\n");
    out.push_str("(check-sat)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_declarations_and_assert() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(8));
        let b = p.var("b", Sort::Bool);
        let c = p.bv_const(7, 32);
        let e1 = p.eq(x, c);
        let z = p.bv_const(3, 8);
        let e2 = p.pred(BvPred::Ult, y, z);
        let f = p.and(&[e1, e2, b]);
        let s = to_smtlib2(&p, f);
        assert!(s.contains("(set-logic QF_BV)"));
        assert!(s.contains("(declare-const x (_ BitVec 32))"));
        assert!(s.contains("(declare-const y (_ BitVec 8))"));
        assert!(s.contains("(declare-const b Bool)"));
        assert!(s.contains("(_ bv7 32)"));
        assert!(s.contains("(bvult y (_ bv3 8))"));
        assert!(s.contains("(check-sat)"));
    }

    #[test]
    fn shared_subterms_become_lets() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(16));
        let one = p.bv_const(1, 16);
        let inc = p.bv(BvOp::Add, x, one); // shared
        let a = p.bv(BvOp::Mul, inc, inc);
        let two = p.bv_const(2, 16);
        let f = p.eq(a, two);
        let s = to_smtlib2(&p, f);
        assert!(s.contains("(let ((?n"), "{s}");
    }

    #[test]
    fn deeply_shared_dag_stays_linear() {
        // A doubling DAG: t_{k+1} = t_k + t_k, 60 levels deep. Printed as
        // a tree this would be ~2^60 characters; with let bindings the
        // script must stay linear in the DAG's 60-odd nodes.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(64));
        let mut t = x;
        for _ in 0..60 {
            t = p.bv(BvOp::Add, t, t);
        }
        let zero = p.bv_const(0, 64);
        let f = p.eq(t, zero);
        let s = to_smtlib2(&p, f);
        assert!(s.len() < 10_000, "script exploded: {} bytes", s.len());
        assert!(s.contains("(let ((?n"), "{s}");
        assert!(s.ends_with("(check-sat)\n"));
        // Every binding is defined before use: each ?nN reference appears
        // after its `(let ((?nN` definition.
        for (i, _) in s.match_indices("?n") {
            let name_end = i + 2 + s[i + 2..].find(|c: char| !c.is_ascii_digit()).unwrap();
            let name = &s[i..name_end];
            let def = s.find(&format!("(let (({name} ")).expect("binding exists");
            assert!(def <= i, "{name} used before its definition");
        }
    }

    #[test]
    fn deep_unshared_chain_does_not_overflow() {
        // 50k-node left-leaning chain with no sharing: nothing earns a
        // let, so the printer walks the whole spine — it must do so
        // iteratively (the old recursive printer blew the stack here).
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let mut t = x;
        for i in 0..50_000u64 {
            let k = p.bv_const(i % 7 + 1, 32);
            t = p.bv(BvOp::Xor, t, k);
        }
        let zero = p.bv_const(0, 32);
        let f = p.eq(t, zero);
        let s = to_smtlib2(&p, f);
        assert!(s.contains("(assert (= "), "{}", &s[..200.min(s.len())]);
        assert_eq!(s.matches("bvxor").count(), 50_000);
        assert!(s.ends_with("(check-sat)\n"));
    }

    #[test]
    fn odd_names_are_quoted() {
        let mut p = TermPool::new();
        let v = p.var("f0@3:v7", Sort::Bv(32));
        let c = p.bv_const(0, 32);
        let f = p.eq(v, c);
        let s = to_smtlib2(&p, f);
        assert!(s.contains("|f0@3:v7|"), "{s}");
    }

    #[test]
    fn operators_cover_the_theory() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let mut parts = Vec::new();
        for op in [
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
        ] {
            let t = p.bv(op, x, y);
            parts.push(p.ne(t, x));
        }
        let f = p.and(&parts);
        let s = to_smtlib2(&p, f);
        for name in [
            "bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvand", "bvor", "bvxor", "bvshl",
            "bvlshr", "bvashr",
        ] {
            assert!(s.contains(name), "missing {name} in {s}");
        }
    }
}
