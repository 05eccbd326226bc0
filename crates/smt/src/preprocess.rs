//! Equisatisfiable preprocessing passes (Algorithm 3, line 2).
//!
//! §4 of the paper lists the intra-procedural preprocessing procedures of
//! the Fusion solver: *forward and backward constant propagation, equality
//! propagation, unconstrained-variable elimination, Gaussian elimination,
//! and strength reduction*. This module implements each of them as a
//! standalone pass over a boolean formula plus the [`preprocess`] pipeline
//! that runs them to a fixpoint. "The satisfiability of many cases (21% in
//! our evaluation) can be decided during this phase" — [`Preprocessed`]
//! records when that happens.
//!
//! Every pass preserves satisfiability of the *existential closure*: free
//! variables are implicitly existentially quantified (they are program
//! inputs), so e.g. replacing `x + t` by a fresh variable when `x` occurs
//! nowhere else is sound in both directions.
//!
//! The pipelines run their passes in a fixed cyclic order and stop as soon
//! as every pass has run once on the current term without changing it
//! (or after [`MAX_ROUNDS`] runs of each), so a call costs a few passes
//! over the DAG it rewrites, not a confirming round after every change.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::term::{mask, BvOp, BvPred, Sort, TermId, TermKind, TermPool, VarIdx};

/// Result of the preprocessing pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preprocessed {
    /// The simplified, equisatisfiable formula.
    pub term: TermId,
    /// `Some(b)` when preprocessing alone decided satisfiability.
    pub decided: Option<bool>,
    /// Number of fixpoint rounds executed (pass runs divided by the number
    /// of passes, rounded up).
    pub rounds: u32,
}

/// Round cap of the pipelines: each pass runs at most this many times per
/// call.
pub const MAX_ROUNDS: u32 = 8;

/// Rebuilds a term bottom-up so all constructor-level rewrites re-apply.
/// This is the "lightweight formula simplification" (LFS) of the paper's
/// evaluation: local rewriting only.
pub fn simplify(pool: &mut TermPool, t: TermId) -> TermId {
    pool.substitute(t, &FxHashMap::default())
}

fn conjuncts(pool: &TermPool, t: TermId) -> Vec<TermId> {
    match pool.kind(t) {
        TermKind::And(xs) => xs.clone(),
        _ => vec![t],
    }
}

/// Forward and backward constant propagation.
///
/// Forward: a conjunct `x = c` binds `x` to the constant everywhere.
/// Backward: conjuncts `x ⊕ c1 = c2` are solved for `x` when `⊕` is
/// invertible (`+`, `-`, `xor`, or `*` by an odd constant). Boolean unit
/// conjuncts (`b`, `¬b`) bind `b`. Iterates to a fixpoint.
pub fn propagate_constants(pool: &mut TermPool, t: TermId) -> TermId {
    propagate_constants_protected(pool, t, &FxHashSet::default())
}

/// [`propagate_constants`] over a formula *fragment*: variables in
/// `protected` (the fragment's interface, shared with other fragments) are
/// never eliminated — their defining conjuncts must survive.
///
/// Each iteration examines only the conjuncts the previous substitution
/// produced. A conjunct that survives a substitution unchanged yields no
/// new binding: had it bound an unprotected variable, the substitution
/// would have rewritten it.
pub fn propagate_constants_protected(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
) -> TermId {
    let mut t = t;
    let mut examined: FxHashSet<TermId> = FxHashSet::default();
    for _ in 0..64 {
        let mut bindings: FxHashMap<VarIdx, TermId> = FxHashMap::default();
        for c in conjuncts(pool, t) {
            if !examined.insert(c) {
                continue;
            }
            if let Some((v, k)) = constant_binding(pool, c) {
                bindings.entry(v).or_insert(k);
            }
        }
        bindings.retain(|v, _| !protected.contains(v));
        if bindings.is_empty() {
            return t;
        }
        // `∃x (x=c ∧ φ)` keeps `x=c` trivially true after substitution,
        // so nothing needs re-adding.
        let next = pool.substitute(t, &bindings);
        if next == t {
            return t;
        }
        t = next;
    }
    t
}

/// The constant a conjunct forces on one variable, if any.
fn constant_binding(pool: &mut TermPool, c: TermId) -> Option<(VarIdx, TermId)> {
    match *pool.kind(c) {
        TermKind::Var(v) => Some((v, pool.tt())),
        TermKind::Not(inner) => match *pool.kind(inner) {
            TermKind::Var(v) => Some((v, pool.ff())),
            _ => None,
        },
        TermKind::Eq(a, b) => {
            // Normalize: constant on one side, candidate the other.
            let (val, other) = match (pool.as_bv_const(a), pool.as_bv_const(b)) {
                (Some(v), None) => (v, b),
                (None, Some(v)) => (v, a),
                _ => return None,
            };
            let w = pool.width(other);
            match *pool.kind(other) {
                TermKind::Var(v) => Some((v, pool.bv_const(val, w))),
                // Backward propagation through invertible ops.
                TermKind::Bv(op, x, y) => {
                    let (v, konst, var_left) = match (as_var(pool, x), pool.as_bv_const(y)) {
                        (Some(v), Some(k)) => (v, k, true),
                        _ => match (pool.as_bv_const(x), as_var(pool, y)) {
                            (Some(k), Some(v)) => (v, k, false),
                            _ => return None,
                        },
                    };
                    let solved = match op {
                        BvOp::Add => val.wrapping_sub(konst) & mask(w),
                        BvOp::Xor => val ^ konst,
                        BvOp::Sub if var_left => {
                            // v - k = val  →  v = val + k
                            val.wrapping_add(konst) & mask(w)
                        }
                        BvOp::Sub => {
                            // k - v = val  →  v = k - val
                            konst.wrapping_sub(val) & mask(w)
                        }
                        BvOp::Mul if konst & 1 == 1 => {
                            val.wrapping_mul(mod_inverse(konst, w)) & mask(w)
                        }
                        _ => return None,
                    };
                    Some((v, pool.bv_const(solved, w)))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Multiplicative inverse of an odd number modulo 2^w (Newton iteration).
fn mod_inverse(a: u64, w: u32) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut x = a; // correct to 3 bits
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x & mask(w)
}

/// Equality propagation: conjuncts `x = y` (variables) substitute the
/// higher-indexed variable by the lower, and conjuncts `x = t` (with `x`
/// not free in `t`) substitute `t` for `x` (Z3's `solve-eqs`).
pub fn propagate_equalities(pool: &mut TermPool, t: TermId) -> TermId {
    propagate_equalities_protected(pool, t, &FxHashSet::default())
}

/// [`propagate_equalities`] over a fragment: `protected` variables are
/// never chosen as the substituted side.
///
/// One call builds one substitution: the first binding per variable in
/// conjunct order. An occurs check then walks the bindings' dependency
/// graph (`x → y` when `y` is bound and free in `x`'s right-hand side)
/// depth first, in conjunct order, and drops every binding whose
/// right-hand side reaches back to a variable on the current path, so
/// the rest is acyclic; the walk visits each binding and edge once. The
/// substitution is applied in one memoized pass that replaces each bound
/// variable by its own substituted right-hand side, which equals
/// substituting the bindings one at a time in dependency order:
/// `∃x (x = t ∧ φ) ≡ φ[t/x]` applies to each.
pub fn propagate_equalities_protected(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
) -> TermId {
    let mut bindings: Vec<(VarIdx, TermId)> = Vec::new();
    let mut index: FxHashMap<VarIdx, usize> = FxHashMap::default();
    for c in conjuncts(pool, t) {
        let TermKind::Eq(a, b) = *pool.kind(c) else {
            continue;
        };
        let (x, rhs) = match (as_var(pool, a), as_var(pool, b)) {
            (Some(x), Some(y)) if x < y => (y, a),
            (Some(x), Some(_)) => (x, b),
            (Some(x), None) => (x, b),
            (None, Some(y)) => (y, a),
            _ => continue,
        };
        if protected.contains(&x) || index.contains_key(&x) {
            continue;
        }
        index.insert(x, bindings.len());
        bindings.push((x, rhs));
    }
    if bindings.is_empty() {
        return t;
    }
    let deps: Vec<Vec<usize>> = bindings
        .iter()
        .map(|&(_, rhs)| {
            let fvs = pool.free_vars(rhs);
            fvs.iter().filter_map(|v| index.get(v).copied()).collect()
        })
        .collect();
    // 0: unvisited, 1: on the current path, 2: done.
    let mut state = vec![0u8; bindings.len()];
    let mut keep = vec![true; bindings.len()];
    let mut path: Vec<(usize, usize)> = Vec::new();
    for root in 0..bindings.len() {
        if state[root] != 0 {
            continue;
        }
        state[root] = 1;
        path.push((root, 0));
        while let Some((u, next)) = path.last_mut() {
            let u = *u;
            if keep[u] && *next < deps[u].len() {
                let v = deps[u][*next];
                *next += 1;
                match state[v] {
                    0 => {
                        state[v] = 1;
                        path.push((v, 0));
                    }
                    1 => keep[u] = false,
                    _ => {}
                }
            } else {
                state[u] = 2;
                path.pop();
            }
        }
    }
    let subst: FxHashMap<VarIdx, TermId> = bindings
        .into_iter()
        .zip(keep)
        .filter_map(|(b, k)| k.then_some(b))
        .collect();
    if subst.is_empty() {
        return t;
    }
    pool.substitute_acyclic(t, &subst)
}

fn as_var(pool: &TermPool, t: TermId) -> Option<VarIdx> {
    match pool.kind(t) {
        TermKind::Var(v) => Some(*v),
        _ => None,
    }
}

/// Unconstrained-variable elimination (Brummayer & Biere style).
///
/// A variable occurring exactly once in the formula is existentially free;
/// if its unique parent is a bijection in that argument (add, sub, xor,
/// multiplication by an odd constant, equality against a term not
/// containing it, comparisons against other unconstrained variables), the
/// parent itself is replaced by a fresh unconstrained variable. Unit
/// unconstrained booleans inside the top-level and/or structure then
/// evaporate — this is precisely how the paper's running example (`e = c <
/// d` with `c`, `d` unconstrained) is decided without bit-blasting.
pub fn eliminate_unconstrained(pool: &mut TermPool, t: TermId) -> TermId {
    eliminate_unconstrained_protected(pool, t, &FxHashSet::default())
}

/// [`eliminate_unconstrained`] over a fragment: `protected` variables are
/// treated as having external occurrences and are never considered
/// unconstrained.
pub fn eliminate_unconstrained_protected(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
) -> TermId {
    let mut t = t;
    for _round in 0..64 {
        // Occurrence counting over the DAG: number of (parent, child-slot)
        // edges per variable, plus parent tracking.
        let mut occurs: FxHashMap<VarIdx, u32> = FxHashMap::default();
        let mut parent_of: FxHashMap<VarIdx, TermId> = FxHashMap::default();
        let mut parent_count: FxHashMap<TermId, u32> = FxHashMap::default();
        let mut nodes: Vec<TermId> = Vec::new();
        pool.visit_dag(t, |x| {
            nodes.push(x);
            for c in pool.children(x) {
                *parent_count.entry(c).or_insert(0) += 1;
                if let TermKind::Var(v) = pool.kind(c) {
                    *occurs.entry(*v).or_insert(0) += 1;
                    parent_of.insert(*v, x);
                }
            }
        });
        let is_singleton = |v: &VarIdx, occ: &FxHashMap<VarIdx, u32>| {
            !protected.contains(v) && occ.get(v) == Some(&1)
        };
        // Batch all independent rewrites for this round: node → fresh var.
        // Each is individually justified by its variable's singleton-ness;
        // fresh replacements keep them independent.
        let mut rewrites: FxHashMap<TermId, TermId> = FxHashMap::default();
        let mut consumed: FxHashSet<VarIdx> = FxHashSet::default();
        let mut parent_entries: Vec<(VarIdx, TermId)> =
            parent_of.iter().map(|(&v, &p)| (v, p)).collect();
        parent_entries.sort_unstable();
        for (v, parent) in parent_entries {
            if !is_singleton(&v, &occurs) || consumed.contains(&v) {
                continue;
            }
            if parent_count.get(&parent) != Some(&1) && parent != t {
                continue;
            }
            if rewrites.contains_key(&parent) {
                continue;
            }
            let vt = pool.var_term(v);
            let replacement = match *pool.kind(parent) {
                TermKind::Bv(op, a, b) => {
                    let other = if a == vt { b } else { a };
                    if pool.free_vars(other).contains(&v) {
                        None
                    } else {
                        let w = pool.width(parent);
                        match op {
                            BvOp::Add | BvOp::Xor | BvOp::Sub => {
                                Some(pool.fresh_var("uc", Sort::Bv(w)))
                            }
                            BvOp::Mul => match pool.as_bv_const(other) {
                                Some(k) if k & 1 == 1 => Some(pool.fresh_var("uc", Sort::Bv(w))),
                                _ => None,
                            },
                            _ => None,
                        }
                    }
                }
                TermKind::Eq(a, b) => {
                    let other = if a == vt { b } else { a };
                    if pool.free_vars(other).contains(&v) {
                        None
                    } else {
                        Some(pool.fresh_var("uc", Sort::Bool))
                    }
                }
                TermKind::Pred(p, a, b) => {
                    let other = if a == vt { b } else { a };
                    let w = pool.width(a);
                    let full_range = match *pool.kind(other) {
                        TermKind::Var(u) if u != v => {
                            is_singleton(&u, &occurs) && !consumed.contains(&u)
                        }
                        TermKind::BvConst { value, .. } => {
                            let lhs_is_var = a == vt;
                            pred_full_range(p, lhs_is_var, value, w)
                        }
                        _ => false,
                    };
                    if full_range {
                        // Consume the partner variable too.
                        if let TermKind::Var(u) = pool.kind(other) {
                            consumed.insert(*u);
                        }
                        Some(pool.fresh_var("uc", Sort::Bool))
                    } else {
                        None
                    }
                }
                TermKind::Not(_) => Some(pool.fresh_var("uc", Sort::Bool)),
                _ => None,
            };
            if let Some(fresh) = replacement {
                consumed.insert(v);
                rewrites.insert(parent, fresh);
            }
        }
        // Affine-stride propagation: comparisons/equalities of independent
        // single-variable affine terms over singleton variables (see the
        // coset argument in this module's docs). `2x₁ ⋈ 2x₂` — the paper's
        // `c < d` — is decided here without bit-blasting.
        for node in nodes {
            if rewrites.contains_key(&node) {
                continue;
            }
            let (is_eq, a, b) = match *pool.kind(node) {
                TermKind::Pred(_, a, b) => (false, a, b),
                TermKind::Eq(a, b) if matches!(pool.sort(a), Sort::Bv(_)) => (true, a, b),
                _ => continue,
            };
            let Sort::Bv(w) = pool.sort(a) else { continue };
            let (Some(la), Some(lb)) = (linear_of(pool, a, w), linear_of(pool, b, w)) else {
                continue;
            };
            let single = |l: &Linear| -> Option<(VarIdx, u64)> {
                if l.coeffs.len() == 1 {
                    let (&v, &c) = l.coeffs.iter().next().expect("len 1");
                    Some((v, c))
                } else {
                    None
                }
            };
            let (Some((vx, ca)), Some((vy, cb))) = (single(&la), single(&lb)) else {
                continue;
            };
            if vx == vy
                || protected.contains(&vx)
                || protected.contains(&vy)
                || consumed.contains(&vx)
                || consumed.contains(&vy)
                || occurs.get(&vx) != Some(&1)
                || occurs.get(&vy) != Some(&1)
                || ca == 0
                || cb == 0
            {
                continue;
            }
            let (za, zb) = (ca.trailing_zeros(), cb.trailing_zeros());
            if za >= w || zb >= w {
                continue;
            }
            let replacement = if is_eq {
                let z = za.min(zb);
                let stride = 1u64 << z;
                if (la.constant & (stride - 1)) == (lb.constant & (stride - 1)) {
                    pool.fresh_var("uc", Sort::Bool)
                } else {
                    pool.ff()
                }
            } else {
                pool.fresh_var("uc", Sort::Bool)
            };
            consumed.insert(vx);
            consumed.insert(vy);
            rewrites.insert(node, replacement);
        }
        if rewrites.is_empty() {
            // Root itself a singleton boolean var → satisfiable.
            if let TermKind::Var(v) = pool.kind(t) {
                if pool.var_sort(*v) == Sort::Bool && !protected.contains(v) {
                    return pool.tt();
                }
            }
            break;
        }
        t = replace_nodes(pool, t, &rewrites);
        t = drop_unconstrained_units(pool, t, protected);
    }
    t
}

/// Replaces a batch of DAG nodes, rebuilding shared spines once. Nodes in
/// the map nested inside other mapped nodes are subsumed by the outermost.
fn replace_nodes(pool: &mut TermPool, root: TermId, map: &FxHashMap<TermId, TermId>) -> TermId {
    fn go(
        pool: &mut TermPool,
        t: TermId,
        map: &FxHashMap<TermId, TermId>,
        memo: &mut FxHashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = map.get(&t) {
            return r;
        }
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = pool.map_children(t, |pool, c| go(pool, c, map, memo));
        memo.insert(t, r);
        r
    }
    let mut memo = FxHashMap::default();
    go(pool, root, map, &mut memo)
}

/// Whether `var ⋈ value` (or `value ⋈ var` when `lhs_is_var` is false)
/// spans both truth values as the variable ranges over all of `Bv(w)`.
fn pred_full_range(p: BvPred, lhs_is_var: bool, value: u64, w: u32) -> bool {
    let umax = mask(w);
    let smin = 1u64 << (w - 1);
    let smax = smin - 1;
    match (p, lhs_is_var) {
        (BvPred::Ult, true) => value != 0,     // x < c
        (BvPred::Ult, false) => value != umax, // c < x
        (BvPred::Ule, true) => value != umax,  // x <= c
        (BvPred::Ule, false) => value != 0,    // c <= x
        (BvPred::Slt, true) => value != smin,  // x <s c
        (BvPred::Slt, false) => value != smax, // c <s x
        (BvPred::Sle, true) => value != smax,  // x <=s c
        (BvPred::Sle, false) => value != smin, // c <=s x
    }
}

/// Drops singleton unconstrained boolean variables occurring directly under
/// the top-level `and`/`or` structure (`∃b. b ∧ φ ≡ φ`, `∃b. b ∨ φ ≡ ⊤`).
fn drop_unconstrained_units(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
) -> TermId {
    // Count occurrences globally first.
    let mut occurs: FxHashMap<VarIdx, u32> = FxHashMap::default();
    pool.visit_dag(t, |x| {
        if let TermKind::Var(v) = pool.kind(x) {
            *occurs.entry(*v).or_insert(0) += 1;
        }
    });
    let singleton_bool = |pool: &TermPool, x: TermId| -> bool {
        let unit = match pool.kind(x) {
            TermKind::Var(v) => Some(*v),
            TermKind::Not(inner) => match pool.kind(*inner) {
                TermKind::Var(v) => Some(*v),
                _ => None,
            },
            _ => None,
        };
        match unit {
            Some(v) => {
                pool.var_sort(v) == Sort::Bool
                    && occurs.get(&v) == Some(&1)
                    && !protected.contains(&v)
            }
            None => false,
        }
    };
    match pool.kind(t) {
        TermKind::And(xs) => {
            let kept: Vec<TermId> = xs
                .iter()
                .copied()
                .filter(|&x| !singleton_bool(pool, x))
                .collect();
            pool.and(&kept)
        }
        TermKind::Or(xs) => {
            if xs.iter().any(|&x| singleton_bool(pool, x)) {
                pool.tt()
            } else {
                t
            }
        }
        _ if singleton_bool(pool, t) => pool.tt(),
        _ => t,
    }
}

/// External known-bits assumptions about free variables, as computed by an
/// upstream abstract interpretation over the *program* (not the formula).
///
/// Each entry states that every satisfying assignment of the full system
/// the formula belongs to gives the variable a value `v` with
/// `v & known == value`. Seeding the known-bits analysis with such facts is
/// satisfiability-preserving for the conjoined system: any model respects
/// the facts, so a bit conflict derived from them still proves the
/// equality (and hence the system) unsatisfiable. The facts are
/// unconditional consequences of the program's acyclic SSA — no path
/// condition is encoded in them.
#[derive(Debug, Clone, Default)]
pub struct BitsSeeds {
    map: FxHashMap<VarIdx, (u64, u64)>,
}

impl BitsSeeds {
    /// An empty seed set (the unseeded behaviour).
    pub fn new() -> BitsSeeds {
        BitsSeeds::default()
    }

    /// Registers `var & known == value` (value bits outside `known` are
    /// ignored).
    pub fn insert(&mut self, var: VarIdx, known: u64, value: u64) {
        if known != 0 {
            self.map.insert(var, (known, value & known));
        }
    }

    /// The fact registered for `var`, if any.
    pub fn get(&self, var: VarIdx) -> Option<(u64, u64)> {
        self.map.get(&var).copied()
    }

    /// Number of seeded variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no facts are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Bit-level constant ("known bits") analysis of a term.
#[derive(Debug, Clone, Copy, Default)]
struct KnownBits {
    /// Mask of bit positions whose value is statically known.
    known: u64,
    /// The known bits' values (zero outside `known`).
    value: u64,
}

impl KnownBits {
    fn all(value: u64, w: u32) -> Self {
        KnownBits {
            known: mask(w),
            value: value & mask(w),
        }
    }

    /// Length of the contiguous known run starting at bit 0.
    fn low_run(&self) -> u32 {
        (!self.known).trailing_zeros()
    }
}

fn known_bits(
    pool: &TermPool,
    t: TermId,
    memo: &mut FxHashMap<TermId, KnownBits>,
    seeds: &BitsSeeds,
) -> KnownBits {
    if let Some(&k) = memo.get(&t) {
        return k;
    }
    let Sort::Bv(w) = pool.sort(t) else {
        return KnownBits::default();
    };
    let m = mask(w);
    let out = match *pool.kind(t) {
        TermKind::BvConst { value, .. } => KnownBits::all(value, w),
        TermKind::Var(v) => match seeds.get(v) {
            Some((known, value)) => KnownBits {
                known: known & m,
                value: value & known & m,
            },
            None => KnownBits::default(),
        },
        TermKind::Bv(op, a, b) => {
            let ka = known_bits(pool, a, memo, seeds);
            let kb = known_bits(pool, b, memo, seeds);
            match op {
                BvOp::And => {
                    let known0 = (ka.known & !ka.value) | (kb.known & !kb.value);
                    let known1 = (ka.known & ka.value) & (kb.known & kb.value);
                    KnownBits {
                        known: (known0 | known1) & m,
                        value: known1 & m,
                    }
                }
                BvOp::Or => {
                    let known1 = (ka.known & ka.value) | (kb.known & kb.value);
                    let known0 = (ka.known & !ka.value) & (kb.known & !kb.value);
                    KnownBits {
                        known: (known0 | known1) & m,
                        value: known1 & m,
                    }
                }
                BvOp::Xor => {
                    let known = ka.known & kb.known;
                    KnownBits {
                        known,
                        value: (ka.value ^ kb.value) & known,
                    }
                }
                BvOp::Shl => match pool.as_bv_const(b) {
                    Some(k) if k < w as u64 => {
                        let low = mask(k as u32);
                        KnownBits {
                            known: ((ka.known << k) | low) & m,
                            value: (ka.value << k) & m & ((ka.known << k) | low),
                        }
                    }
                    _ => KnownBits::default(),
                },
                BvOp::Lshr => match pool.as_bv_const(b) {
                    Some(k) if k < w as u64 => {
                        let high = m & !(m >> k);
                        KnownBits {
                            known: ((ka.known >> k) | high) & m,
                            value: (ka.value >> k) & m,
                        }
                    }
                    _ => KnownBits::default(),
                },
                BvOp::Add | BvOp::Sub => {
                    let j = ka.low_run().min(kb.low_run()).min(w);
                    if j == 0 {
                        KnownBits::default()
                    } else {
                        let jm = mask(j);
                        let v = if op == BvOp::Add {
                            ka.value.wrapping_add(kb.value)
                        } else {
                            ka.value.wrapping_sub(kb.value)
                        };
                        KnownBits {
                            known: jm,
                            value: v & jm,
                        }
                    }
                }
                BvOp::Mul => {
                    let j = ka.low_run().min(kb.low_run()).min(w);
                    if j == 0 {
                        KnownBits::default()
                    } else {
                        let jm = mask(j);
                        KnownBits {
                            known: jm,
                            value: ka.value.wrapping_mul(kb.value) & jm,
                        }
                    }
                }
                BvOp::Ashr | BvOp::Udiv | BvOp::Urem => KnownBits::default(),
            }
        }
        TermKind::Ite { then_t, else_t, .. } => {
            let ka = known_bits(pool, then_t, memo, seeds);
            let kb = known_bits(pool, else_t, memo, seeds);
            let agree = ka.known & kb.known & !(ka.value ^ kb.value);
            KnownBits {
                known: agree,
                value: ka.value & agree,
            }
        }
        _ => KnownBits::default(),
    };
    memo.insert(t, out);
    out
}

/// Refutes (or confirms nothing about) equalities by known-bits analysis:
/// `eq(a, b)` rewrites to `false` when some bit position is known in both
/// sides with different values — e.g. `2a = 2b + 1` (even = odd). This is
/// an equivalence, safe at any polarity, and is what decides the parity
/// conditions of the workloads without bit-blasting.
pub fn refute_by_known_bits(pool: &mut TermPool, t: TermId) -> TermId {
    refute_by_known_bits_seeded(pool, t, &BitsSeeds::default())
}

/// [`refute_by_known_bits`] with external facts about free variables: the
/// seeded bits participate in the same bit-conflict test, so program-level
/// facts (e.g. "this variable is even") refute equalities on first contact
/// instead of being rediscovered structurally per instance.
pub fn refute_by_known_bits_seeded(pool: &mut TermPool, t: TermId, seeds: &BitsSeeds) -> TermId {
    fn go(
        pool: &mut TermPool,
        t: TermId,
        memo: &mut FxHashMap<TermId, TermId>,
        kmemo: &mut FxHashMap<TermId, KnownBits>,
        seeds: &BitsSeeds,
    ) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = match *pool.kind(t) {
            TermKind::Eq(a, b) if matches!(pool.sort(a), Sort::Bv(_)) => {
                let a2 = go(pool, a, memo, kmemo, seeds);
                let b2 = go(pool, b, memo, kmemo, seeds);
                let ka = known_bits(pool, a2, kmemo, seeds);
                let kb = known_bits(pool, b2, kmemo, seeds);
                let both = ka.known & kb.known;
                if (ka.value ^ kb.value) & both != 0 {
                    pool.ff()
                } else {
                    pool.eq(a2, b2)
                }
            }
            _ => pool.map_children(t, |pool, c| go(pool, c, memo, kmemo, seeds)),
        };
        memo.insert(t, r);
        r
    }
    let mut memo = FxHashMap::default();
    let mut kmemo = FxHashMap::default();
    go(pool, t, &mut memo, &mut kmemo, seeds)
}

/// A linear form over one bit width: `Σ coeff·var + constant (mod 2^w)`.
#[derive(Debug, Clone, Default)]
struct Linear {
    coeffs: FxHashMap<VarIdx, u64>,
    constant: u64,
}

fn linear_of(pool: &TermPool, t: TermId, w: u32) -> Option<Linear> {
    match *pool.kind(t) {
        TermKind::BvConst { value, .. } => Some(Linear {
            coeffs: FxHashMap::default(),
            constant: value,
        }),
        TermKind::Var(v) => {
            let mut coeffs = FxHashMap::default();
            coeffs.insert(v, 1u64);
            Some(Linear {
                coeffs,
                constant: 0,
            })
        }
        TermKind::Bv(BvOp::Add, a, b) => {
            let la = linear_of(pool, a, w)?;
            let lb = linear_of(pool, b, w)?;
            Some(lin_add(la, &lb, 1, w))
        }
        TermKind::Bv(BvOp::Sub, a, b) => {
            let la = linear_of(pool, a, w)?;
            let lb = linear_of(pool, b, w)?;
            Some(lin_add(la, &lb, mask(w), w)) // -1 ≡ 2^w - 1
        }
        TermKind::Bv(BvOp::Mul, a, b) => {
            if let Some(k) = pool.as_bv_const(a) {
                let lb = linear_of(pool, b, w)?;
                Some(lin_scale(lb, k, w))
            } else if let Some(k) = pool.as_bv_const(b) {
                let la = linear_of(pool, a, w)?;
                Some(lin_scale(la, k, w))
            } else {
                None
            }
        }
        TermKind::Bv(BvOp::Shl, a, b) => {
            let k = pool.as_bv_const(b)?;
            if k >= w as u64 {
                return Some(Linear::default());
            }
            let la = linear_of(pool, a, w)?;
            Some(lin_scale(la, 1u64 << k, w))
        }
        _ => None,
    }
}

fn lin_add(mut a: Linear, b: &Linear, scale_b: u64, w: u32) -> Linear {
    let m = mask(w);
    for (&v, &c) in &b.coeffs {
        let e = a.coeffs.entry(v).or_insert(0);
        *e = e.wrapping_add(c.wrapping_mul(scale_b)) & m;
    }
    a.constant = a.constant.wrapping_add(b.constant.wrapping_mul(scale_b)) & m;
    a.coeffs.retain(|_, &mut c| c != 0);
    a
}

fn lin_scale(mut a: Linear, k: u64, w: u32) -> Linear {
    let m = mask(w);
    for c in a.coeffs.values_mut() {
        *c = c.wrapping_mul(k) & m;
    }
    a.constant = a.constant.wrapping_mul(k) & m;
    a.coeffs.retain(|_, &mut c| c != 0);
    a
}

fn lin_to_term(pool: &mut TermPool, lin: &Linear, w: u32) -> TermId {
    let mut acc = pool.bv_const(lin.constant, w);
    let mut vars: Vec<(&VarIdx, &u64)> = lin.coeffs.iter().collect();
    vars.sort();
    for (&v, &c) in vars {
        let vt = pool.var_term(v);
        let k = pool.bv_const(c, w);
        let prod = pool.bv(BvOp::Mul, k, vt);
        acc = pool.bv(BvOp::Add, acc, prod);
    }
    acc
}

/// Gaussian elimination over the ring Z/2^w: solves the system formed by
/// the linear equality conjuncts, substituting solved variables (those with
/// odd, hence invertible, coefficients) and detecting inconsistencies.
pub fn gaussian_eliminate(pool: &mut TermPool, t: TermId) -> TermId {
    gaussian_eliminate_protected(pool, t, &FxHashSet::default())
}

/// [`gaussian_eliminate`] over a fragment: `protected` variables are never
/// chosen as pivots (their defining equations survive as residuals).
pub fn gaussian_eliminate_protected(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
) -> TermId {
    let cs = conjuncts(pool, t);
    let mut others: Vec<TermId> = Vec::new();
    let mut equations: Vec<(Linear, u32)> = Vec::new();
    for c in &cs {
        let mut handled = false;
        if let TermKind::Eq(a, b) = *pool.kind(*c) {
            if let Sort::Bv(w) = pool.sort(a) {
                if let (Some(la), Some(lb)) = (linear_of(pool, a, w), linear_of(pool, b, w)) {
                    // a - b = 0
                    let lin = lin_add(la, &lb, mask(w), w);
                    equations.push((lin, w));
                    handled = true;
                }
            }
        }
        if !handled {
            others.push(*c);
        }
    }
    if equations.is_empty() {
        return t;
    }
    // Triangularize: repeatedly pick an equation with an odd-coefficient
    // variable, solve, substitute into the rest.
    let mut solutions: FxHashMap<VarIdx, (Linear, u32)> = FxHashMap::default();
    let mut remaining: Vec<(Linear, u32)> = Vec::new();
    let mut dropped_trivial = false;
    while let Some((lin, w)) = equations.pop() {
        if lin.coeffs.is_empty() {
            if lin.constant != 0 {
                return pool.ff(); // 0 = c ≠ 0: inconsistent
            }
            dropped_trivial = true;
            continue;
        }
        // Find an odd-coefficient variable (invertible mod 2^w).
        let mut pick: Option<(VarIdx, u64)> = None;
        let mut vars: Vec<(&VarIdx, &u64)> = lin.coeffs.iter().collect();
        vars.sort();
        for (&v, &c) in vars {
            if c & 1 == 1 && !protected.contains(&v) {
                pick = Some((v, c));
                break;
            }
        }
        let Some((v, c)) = pick else {
            remaining.push((lin, w));
            continue;
        };
        // v = -inv(c) * (rest + constant)
        let inv = mod_inverse(c, w);
        let neg_inv = 0u64.wrapping_sub(inv) & mask(w);
        let mut rhs = lin.clone();
        rhs.coeffs.remove(&v);
        let rhs = lin_scale(rhs, neg_inv, w);
        // Substitute into all pending and solved forms.
        for (other, ow) in equations.iter_mut().chain(remaining.iter_mut()) {
            if let Some(k) = other.coeffs.remove(&v) {
                *other = lin_add(other.clone(), &rhs, k, *ow);
            }
        }
        for (sol, sw) in solutions.values_mut() {
            if let Some(k) = sol.coeffs.remove(&v) {
                *sol = lin_add(sol.clone(), &rhs, k, *sw);
            }
        }
        solutions.insert(v, (rhs, w));
    }
    if solutions.is_empty() && !dropped_trivial {
        // Nothing solved: every equation would be rebuilt as `lhs - rhs =
        // 0`, whose next reading is `0 - (lhs - rhs) = 0`, so re-emitting
        // them would flip their sign on every call and the pipeline would
        // never reach a fixpoint.
        return t;
    }
    // Rebuild: substitute solutions into the non-linear conjuncts, keep
    // unsolved equations.
    let mut subst: FxHashMap<VarIdx, TermId> = FxHashMap::default();
    for (v, (lin, w)) in &solutions {
        subst.insert(*v, lin_to_term(pool, lin, *w));
    }
    let mut parts: Vec<TermId> = Vec::with_capacity(others.len() + remaining.len());
    for o in others {
        parts.push(pool.substitute(o, &subst));
    }
    for (lin, w) in remaining {
        let lhs = lin_to_term(pool, &lin, w);
        let zero = pool.bv_const(0, w);
        parts.push(pool.eq(lhs, zero));
    }
    pool.and(&parts)
}

/// Strength reduction: multiplications, divisions and remainders by powers
/// of two become shifts and masks.
pub fn reduce_strength(pool: &mut TermPool, t: TermId) -> TermId {
    fn go(pool: &mut TermPool, t: TermId, memo: &mut FxHashMap<TermId, TermId>) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = match *pool.kind(t) {
            TermKind::Bv(op, a, b) => {
                let a = go(pool, a, memo);
                let b = go(pool, b, memo);
                let w = pool.width(a);
                let rewrite = |pool: &mut TermPool, x: TermId, k: u64| -> Option<TermId> {
                    if k == 0 || !k.is_power_of_two() {
                        return None;
                    }
                    let sh = k.trailing_zeros() as u64;
                    let sht = pool.bv_const(sh, w);
                    match op {
                        BvOp::Mul => Some(pool.bv(BvOp::Shl, x, sht)),
                        BvOp::Udiv => Some(pool.bv(BvOp::Lshr, x, sht)),
                        BvOp::Urem => {
                            let m = pool.bv_const(k - 1, w);
                            Some(pool.bv(BvOp::And, x, m))
                        }
                        _ => None,
                    }
                };
                let reduced = match op {
                    BvOp::Mul => pool
                        .as_bv_const(b)
                        .and_then(|k| rewrite(pool, a, k))
                        .or_else(|| pool.as_bv_const(a).and_then(|k| rewrite(pool, b, k))),
                    BvOp::Udiv | BvOp::Urem => {
                        pool.as_bv_const(b).and_then(|k| rewrite(pool, a, k))
                    }
                    _ => None,
                };
                reduced.unwrap_or_else(|| pool.bv(op, a, b))
            }
            _ => pool.map_children(t, |pool, c| go(pool, c, memo)),
        };
        memo.insert(t, r);
        r
    }
    let mut memo = FxHashMap::default();
    go(pool, t, &mut memo)
}

/// The full preprocessing pipeline, run to a fixpoint (bounded rounds):
/// strength reduction → constant propagation → equality propagation →
/// Gaussian elimination → unconstrained-variable elimination, then bounded
/// equality saturation (e-graph, [`crate::egraph`]) over the residual. The
/// e-graph leg obeys the ambient [`crate::egraph::EGraphConfig::default`]
/// (so `FUSION_NO_EGRAPH` disables it everywhere).
pub fn preprocess(pool: &mut TermPool, t: TermId) -> Preprocessed {
    preprocess_ext(pool, t, &crate::egraph::EGraphConfig::default()).0
}

/// [`preprocess`] with an explicit e-graph configuration, also returning
/// the saturation counters. The e-graph runs on the *residual* of the
/// substitution passes: only after the SSA equation network has been
/// inlined do guards carry real expression trees, which is where
/// reassociation, AC canonicalization, and strength reduction pay off.
/// When saturation finds a cheaper term, one more substitution pass
/// harvests the folds it exposed.
pub fn preprocess_ext(
    pool: &mut TermPool,
    t: TermId,
    egraph: &crate::egraph::EGraphConfig,
) -> (Preprocessed, crate::egraph::EGraphStats) {
    let pre = preprocess_protected(pool, t, &Default::default());
    let (t2, eg) = crate::egraph::egraph_simplify(pool, pre.term, &BitsSeeds::default(), egraph);
    if t2 == pre.term {
        return (pre, eg);
    }
    let pre2 = preprocess_protected(pool, t2, &Default::default());
    (
        Preprocessed {
            term: pre2.term,
            decided: pre2.decided,
            rounds: pre.rounds + pre2.rounds,
        },
        eg,
    )
}

/// A lighter fragment pipeline for *composable* conditions: only the
/// structure-preserving substitution passes (strength reduction, constant
/// propagation, equality propagation, Gaussian elimination) run.
/// Unconstrained-variable elimination is deliberately excluded — its fresh
/// replacement variables would have to be renamed apart per clone, which
/// empirically leaves the downstream global preprocessing with residues it
/// can no longer decide. UVE pays off once, globally.
pub fn preprocess_fragment(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
) -> Preprocessed {
    preprocess_fragment_seeded(pool, t, protected, &BitsSeeds::default())
}

/// [`preprocess_fragment`] with external known-bits facts about free
/// variables (see [`BitsSeeds`]): the known-bits refutation pass consults
/// the seeds, so program-level facts decide fragments on first contact.
pub fn preprocess_fragment_seeded(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
    seeds: &BitsSeeds,
) -> Preprocessed {
    preprocess_fragment_seeded_ext(
        pool,
        t,
        protected,
        seeds,
        &crate::egraph::EGraphConfig::default(),
    )
    .0
}

/// [`preprocess_fragment_seeded`] with an explicit e-graph configuration,
/// also returning the saturation counters. The e-graph leg runs over the
/// residual of the substitution passes — once the fragment's SSA equation
/// network has been inlined, guards are real expression trees that
/// saturation can reassociate — and consults the same seeds, so a fragment
/// is simplified to its cheapest equivalent *once*, before the engine
/// clones it into every calling context (§3.2.3), and nothing query- or
/// path-dependent is ever cached (§3.2.2: the seeds are unconditional
/// program facts, the rewrites pure equivalences).
pub fn preprocess_fragment_seeded_ext(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
    seeds: &BitsSeeds,
    egraph: &crate::egraph::EGraphConfig,
) -> (Preprocessed, crate::egraph::EGraphStats) {
    let pre = preprocess_fragment_seeded_inner(pool, t, protected, seeds);
    let (t2, eg) = crate::egraph::egraph_simplify(pool, pre.term, seeds, egraph);
    if t2 == pre.term {
        return (pre, eg);
    }
    let pre2 = preprocess_fragment_seeded_inner(pool, t2, protected, seeds);
    (
        Preprocessed {
            term: pre2.term,
            decided: pre2.decided,
            rounds: pre.rounds + pre2.rounds,
        },
        eg,
    )
}

fn preprocess_fragment_seeded_inner(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
    seeds: &BitsSeeds,
) -> Preprocessed {
    run_schedule(pool, t, FRAGMENT_PASSES, protected, seeds)
}

/// [`preprocess`] over a fragment with a protected interface: all passes
/// run in their interface-preserving variants, so the result can still be
/// conjoined with other fragments mentioning the protected variables.
pub fn preprocess_protected(
    pool: &mut TermPool,
    t: TermId,
    protected: &FxHashSet<VarIdx>,
) -> Preprocessed {
    run_schedule(pool, t, FULL_PASSES, protected, &BitsSeeds::default())
}

/// One named pass of the pipelines.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Strength,
    KnownBits,
    Constants,
    Equalities,
    Gauss,
    Unconstrained,
}

/// The passes of [`preprocess_protected`], in schedule order.
const FULL_PASSES: &[Pass] = &[
    Pass::Strength,
    Pass::KnownBits,
    Pass::Constants,
    Pass::Equalities,
    Pass::Gauss,
    Pass::Unconstrained,
];

/// The structure-preserving passes of [`preprocess_fragment`].
const FRAGMENT_PASSES: &[Pass] = &[
    Pass::Strength,
    Pass::KnownBits,
    Pass::Constants,
    Pass::Equalities,
    Pass::Gauss,
];

/// Runs `passes` cyclically from `simplify(t)` until every pass has run
/// once on the current term without changing it, or each has run
/// [`MAX_ROUNDS`] times. When it stops before the cap, the result is a
/// fixpoint of every pass.
fn run_schedule(
    pool: &mut TermPool,
    t: TermId,
    passes: &[Pass],
    protected: &FxHashSet<VarIdx>,
    seeds: &BitsSeeds,
) -> Preprocessed {
    let mut t = simplify(pool, t);
    let n = passes.len();
    let mut runs = 0usize;
    // Consecutive runs that left `t` unchanged.
    let mut unchanged = 0usize;
    while unchanged < n && runs < MAX_ROUNDS as usize * n {
        let next = match passes[runs % n] {
            Pass::Strength => reduce_strength(pool, t),
            Pass::KnownBits => refute_by_known_bits_seeded(pool, t, seeds),
            Pass::Constants => propagate_constants_protected(pool, t, protected),
            Pass::Equalities => propagate_equalities_protected(pool, t, protected),
            Pass::Gauss => gaussian_eliminate_protected(pool, t, protected),
            Pass::Unconstrained => eliminate_unconstrained_protected(pool, t, protected),
        };
        runs += 1;
        if next == t {
            unchanged += 1;
        } else {
            t = next;
            unchanged = 0;
        }
    }
    Preprocessed {
        term: t,
        decided: pool.as_bool_const(t),
        rounds: runs.div_ceil(n) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn pool() -> TermPool {
        TermPool::new()
    }

    #[test]
    fn constant_propagation_forward() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let c5 = p.bv_const(5, 32);
        let c7 = p.bv_const(7, 32);
        let e1 = p.eq(x, c5);
        let sum = p.bv(BvOp::Add, x, y);
        let e2 = p.eq(sum, c7);
        let f = p.and2(e1, e2);
        let r = propagate_constants(&mut p, f);
        // x := 5 leaves 5 + y = 7, then backward propagation binds y := 2,
        // collapsing everything to true.
        assert_eq!(p.as_bool_const(r), Some(true));
    }

    #[test]
    fn constant_propagation_detects_conflict() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(32));
        let c5 = p.bv_const(5, 32);
        let c6 = p.bv_const(6, 32);
        let e1 = p.eq(x, c5);
        let e2 = p.eq(x, c6);
        let f = p.and2(e1, e2);
        let r = propagate_constants(&mut p, f);
        assert_eq!(p.as_bool_const(r), Some(false));
    }

    #[test]
    fn backward_propagation_through_mul_odd() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(8));
        let c3 = p.bv_const(3, 8);
        let c9 = p.bv_const(9, 8);
        let prod = p.bv(BvOp::Mul, x, c3);
        let e = p.eq(prod, c9);
        let y = p.var("y", Sort::Bv(8));
        let ey = p.eq(y, x); // forces x to be mentioned again
        let f = p.and2(e, ey);
        let r = propagate_constants(&mut p, f);
        // x = 3 (3*3=9): formula collapses to true after substituting.
        assert_eq!(p.as_bool_const(r), Some(true));
    }

    #[test]
    fn seeded_known_bits_refute_parity() {
        // Without seeds, `x == 7` with free `x` is undecided. Seeding the
        // fact "x is even" (bit 0 known zero) refutes the equality.
        let mut p = pool();
        let x = p.var("x", Sort::Bv(32));
        let c7 = p.bv_const(7, 32);
        let f = p.eq(x, c7);
        let unseeded = refute_by_known_bits(&mut p, f);
        assert_eq!(p.as_bool_const(unseeded), None);
        let mut seeds = BitsSeeds::new();
        let TermKind::Var(vx) = *p.kind(x) else {
            panic!("expected var");
        };
        seeds.insert(vx, 1, 0);
        assert_eq!(seeds.len(), 1);
        assert!(!seeds.is_empty());
        let seeded = refute_by_known_bits_seeded(&mut p, f, &seeds);
        assert_eq!(p.as_bool_const(seeded), Some(false));
    }

    #[test]
    fn seeded_fragment_pipeline_decides() {
        // Seeds flow through the fragment pipeline: `x * 2 + 1 == 8` with a
        // seeded odd/even fact on a *derived* variable composes with the
        // structural analysis.
        let mut p = pool();
        let x = p.var("x", Sort::Bv(32));
        let c8 = p.bv_const(8, 32);
        let c1 = p.bv_const(1, 32);
        let sum = p.bv(BvOp::Add, x, c1);
        let f = p.eq(sum, c8);
        // x even ⇒ x + 1 odd ⇒ never 8.
        let TermKind::Var(vx) = *p.kind(x) else {
            panic!("expected var");
        };
        let mut seeds = BitsSeeds::new();
        seeds.insert(vx, 1, 0);
        let out = preprocess_fragment_seeded(&mut p, f, &Default::default(), &seeds);
        assert_eq!(out.decided, Some(false));
    }

    #[test]
    fn equality_propagation_chains() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let z = p.var("z", Sort::Bv(16));
        let exy = p.eq(x, y);
        let eyz = p.eq(y, z);
        let c1 = p.bv_const(1, 16);
        let gap = p.ne(x, z);
        let _ = c1;
        let f = p.and(&[exy, eyz, gap]);
        let r = propagate_equalities(&mut p, f);
        assert_eq!(p.as_bool_const(r), Some(false));
    }

    #[test]
    fn equality_propagation_resolves_chains_in_one_call() {
        // x = y + z, y = 3z: one substitution resolves x through y.
        let mut p = pool();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let z = p.var("z", Sort::Bv(16));
        let c3 = p.bv_const(3, 16);
        let yz = p.bv(BvOp::Add, y, z);
        let z3 = p.bv(BvOp::Mul, z, c3);
        let e1 = p.eq(x, yz);
        let e2 = p.eq(y, z3);
        let lt = p.pred(BvPred::Ult, x, z);
        let f = p.and(&[e1, e2, lt]);
        let r = propagate_equalities(&mut p, f);
        assert_eq!(p.free_vars(r).len(), 1, "got {}", p.display(r));
        let sum = p.bv(BvOp::Add, z3, z);
        assert_eq!(r, p.pred(BvPred::Ult, sum, z));
    }

    #[test]
    fn equality_propagation_occurs_check_breaks_cycles() {
        // x = y + 1 and y = x + 1 bind each other: only the first binding
        // is taken, which leaves y = (y + 1) + 1 — unsatisfiable, as the
        // pipeline then proves.
        let mut p = pool();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let one = p.bv_const(1, 16);
        let y1 = p.bv(BvOp::Add, y, one);
        let x1 = p.bv(BvOp::Add, x, one);
        let e1 = p.eq(x, y1);
        let e2 = p.eq(y, x1);
        let f = p.and2(e1, e2);
        let r = propagate_equalities(&mut p, f);
        let TermKind::Var(vy) = *p.kind(y) else {
            panic!("expected var");
        };
        assert_eq!(p.free_vars(r), vec![vy], "got {}", p.display(r));
        assert_eq!(preprocess(&mut p, f).decided, Some(false));
    }

    #[test]
    fn unconstrained_addition_is_dropped() {
        // The paper's example shape: z = y ∧ y = 2x with x used once →
        // everything unconstrained → satisfiable.
        let mut p = pool();
        let x = p.var("x", Sort::Bv(32));
        let c = p.var("c", Sort::Bv(32));
        let sum = p.bv(BvOp::Add, x, c); // x fresh & singleton
        let d = p.var("d", Sort::Bv(32));
        let f = p.eq(sum, d);
        let r = eliminate_unconstrained(&mut p, f);
        assert_eq!(p.as_bool_const(r), Some(true));
    }

    #[test]
    fn unconstrained_comparison_of_two_fresh_vars() {
        let mut p = pool();
        let c = p.var("c", Sort::Bv(32));
        let d = p.var("d", Sort::Bv(32));
        let e = p.pred(BvPred::Slt, c, d);
        let r = eliminate_unconstrained(&mut p, e);
        assert_eq!(p.as_bool_const(r), Some(true));
    }

    #[test]
    fn constrained_vars_are_kept() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(8));
        let c0 = p.bv_const(0, 8);
        let lt = p.pred(BvPred::Ult, x, c0); // x < 0: never true
        let r = eliminate_unconstrained(&mut p, lt);
        // Constructor already folds? ult(x, 0) is not folded by
        // constructors; the pass must NOT treat it as full-range.
        assert_ne!(p.as_bool_const(r), Some(true));
    }

    #[test]
    fn gaussian_solves_consistent_system() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        // x + 2y = 10, x + y = 7  →  y = 3, x = 4 (unit pivots exist).
        let c10 = p.bv_const(10, 16);
        let c7 = p.bv_const(7, 16);
        let two = p.bv_const(2, 16);
        let ty = p.bv(BvOp::Mul, two, y);
        let s1 = p.bv(BvOp::Add, x, ty);
        let s2 = p.bv(BvOp::Add, x, y);
        let e1 = p.eq(s1, c10);
        let e2 = p.eq(s2, c7);
        let f = p.and2(e1, e2);
        let r = gaussian_eliminate(&mut p, f);
        assert_eq!(p.as_bool_const(r), Some(true));
    }

    #[test]
    fn gaussian_keeps_even_residual() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        // x + y = 10, x - y = 4: eliminating x leaves 2y = 6, which has no
        // unit pivot mod 2^16 and must survive as a residual equation.
        let c10 = p.bv_const(10, 16);
        let c4 = p.bv_const(4, 16);
        let s = p.bv(BvOp::Add, x, y);
        let d = p.bv(BvOp::Sub, x, y);
        let e1 = p.eq(s, c10);
        let e2 = p.eq(d, c4);
        let f = p.and2(e1, e2);
        let r = gaussian_eliminate(&mut p, f);
        assert_eq!(p.as_bool_const(r), None, "got {}", p.display(r));
        // x must have been eliminated; only y remains.
        let fv = p.free_vars(r);
        assert_eq!(fv.len(), 1);
    }

    #[test]
    fn gaussian_leaves_unsolvable_systems_alone() {
        // `x = y` with both sides protected has no pivot. Re-emitting it as
        // `x - y = 0` would read back as `0 - (x - y) = 0` and flip sign on
        // every call, so the pipelines would run to their round cap.
        let mut p = pool();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let f = p.eq(x, y);
        let protected: FxHashSet<VarIdx> = p.free_vars(f).into_iter().collect();
        assert_eq!(gaussian_eliminate_protected(&mut p, f, &protected), f);
        for pre in [
            preprocess_protected(&mut p, f, &protected),
            preprocess_fragment(&mut p, f, &protected),
        ] {
            assert_eq!((pre.term, pre.rounds), (f, 1));
        }
    }

    #[test]
    fn gaussian_detects_inconsistency() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let s = p.bv(BvOp::Add, x, y);
        let c1 = p.bv_const(1, 16);
        let c2 = p.bv_const(2, 16);
        let e1 = p.eq(s, c1);
        let e2 = p.eq(s, c2);
        let f = p.and2(e1, e2);
        let r = gaussian_eliminate(&mut p, f);
        assert_eq!(p.as_bool_const(r), Some(false));
    }

    #[test]
    fn strength_reduction_rewrites_pow2() {
        let mut p = pool();
        let x = p.var("x", Sort::Bv(32));
        let c8 = p.bv_const(8, 32);
        let prod = p.bv(BvOp::Mul, x, c8);
        let r = reduce_strength(&mut p, prod);
        assert!(
            matches!(p.kind(r), TermKind::Bv(BvOp::Shl, _, _)),
            "{}",
            p.display(r)
        );
        let quot = p.bv(BvOp::Udiv, x, c8);
        let r = reduce_strength(&mut p, quot);
        assert!(matches!(p.kind(r), TermKind::Bv(BvOp::Lshr, _, _)));
        let rem = p.bv(BvOp::Urem, x, c8);
        let r = reduce_strength(&mut p, rem);
        assert!(matches!(p.kind(r), TermKind::Bv(BvOp::And, _, _)));
    }

    #[test]
    fn mod_inverse_is_correct() {
        for w in [8u32, 16, 32] {
            for a in [1u64, 3, 5, 7, (0xab % mask(w).max(1)) | 1] {
                let inv = mod_inverse(a, w);
                assert_eq!(a.wrapping_mul(inv) & mask(w), 1, "a={a} w={w}");
            }
        }
    }

    #[test]
    fn pipeline_decides_paper_example() {
        // Fig. 1(b): y1 = x1*2 ∧ z1 = y1 ∧ a = x1 ∧ c = z1 ∧
        //            y2 = x2*2 ∧ z2 = y2 ∧ b = x2 ∧ d = z2 ∧ e ∧ e = c < d
        let mut p = pool();
        let w = Sort::Bv(32);
        let names = ["x1", "y1", "z1", "a", "c", "x2", "y2", "z2", "b", "d"];
        let v: Vec<TermId> = names.iter().map(|n| p.var(n, w)).collect();
        let two = p.bv_const(2, 32);
        let m1 = p.bv(BvOp::Mul, v[0], two);
        let m2 = p.bv(BvOp::Mul, v[5], two);
        let e_bool = p.var("e", Sort::Bool);
        let cmp = p.pred(BvPred::Slt, v[4], v[9]);
        let parts = vec![
            p.eq(v[1], m1),
            p.eq(v[2], v[1]),
            p.eq(v[3], v[0]),
            p.eq(v[4], v[2]),
            p.eq(v[6], m2),
            p.eq(v[7], v[6]),
            p.eq(v[8], v[5]),
            p.eq(v[9], v[7]),
            e_bool,
            p.eq(e_bool, cmp),
        ];
        let f = p.and(&parts);
        let r = preprocess(&mut p, f);
        assert_eq!(r.decided, Some(true), "got {}", p.display(r.term));
    }

    #[test]
    fn pipeline_reports_rounds() {
        let mut p = pool();
        let t = p.tt();
        let r = preprocess(&mut p, t);
        assert_eq!(r.decided, Some(true));
        assert!(r.rounds >= 1);
    }
}
