//! Equality saturation over the hash-consed term pool.
//!
//! The fixed-order pipeline in [`crate::preprocess`] applies each rewrite
//! rule once per fixpoint round, so an equivalence that only becomes
//! visible after *another* rule fires in a different subterm can be missed.
//! This module removes the ordering problem the standard way: an **e-graph**
//! (a union-find over *e-classes* of [`TermKind`]-shaped e-nodes, kept
//! congruent by a rebuild worklist) is populated from a [`TermPool`] root,
//! saturated under a bounded rewrite schedule, and lowered back to the pool
//! by cost-based extraction — the egg/egg-smol `TermDag` idiom and the
//! extraction-gym extractor zoo.
//!
//! Everything here is an *equivalence* on terms: for any assignment of the
//! free variables (consistent with the [`BitsSeeds`] facts, which are
//! unconditional program invariants), the extracted term evaluates exactly
//! like the input. No satisfiability-only tricks, no path conditions, no
//! caching of anything query-dependent — the pass is a pure term-to-term
//! simplifier, which is what lets the engine run it *once per function
//! fragment before instantiation* (§3.2.3) without violating §3.2.2.
//!
//! Safety rails (the saturation can only help, never hurt):
//!
//! * hard caps on e-node count and rebuild iterations with a clean
//!   fall-through to the unsimplified input term;
//! * every rule is idempotent under re-application, and the schedule stops
//!   at the first change-free iteration (*saturated*);
//! * extraction only returns the new term when it is no larger (DAG nodes)
//!   than the input.
//!
//! Determinism: classes are scanned in ascending id order, the union-find
//! always keeps the *smallest* class id as canonical, and every tie-break
//! in extraction prefers the lowest node index — no hash-map iteration
//! order ever influences the result.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::preprocess::BitsSeeds;
use crate::term::{mask, BvOp, BvPred, Children, Sort, TermId, TermKind, TermPool, Value, VarIdx};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Configuration and statistics
// ---------------------------------------------------------------------------

/// Which cost-based extractor lowers the saturated e-graph back to a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractorKind {
    /// Greedy bottom-up **tree** cost (the classic Bellman fixpoint);
    /// fastest, but shared subterms are double-counted in the cost.
    BottomUp,
    /// Greedy **DAG** cost: each class carries its reachable-class set so
    /// shared subterms are counted once; synchronous fixpoint sweeps.
    #[default]
    GreedyDag,
    /// Global greedy DAG cost in the extraction-gym shape: a term dag with
    /// per-term reachability sets, improvements propagated through a
    /// parent worklist.
    GlobalGreedyDag,
}

impl ExtractorKind {
    /// Stable lowercase name (bench tables, CLI).
    pub fn name(self) -> &'static str {
        match self {
            ExtractorKind::BottomUp => "bottom-up",
            ExtractorKind::GreedyDag => "greedy-dag",
            ExtractorKind::GlobalGreedyDag => "global-greedy-dag",
        }
    }

    /// All extractors, for comparison harnesses.
    pub const ALL: [ExtractorKind; 3] = [
        ExtractorKind::BottomUp,
        ExtractorKind::GreedyDag,
        ExtractorKind::GlobalGreedyDag,
    ];
}

/// Bounds and selection for one e-graph simplification pass.
#[derive(Debug, Clone, Copy)]
pub struct EGraphConfig {
    /// Master switch. Defaults to on unless the `FUSION_NO_EGRAPH`
    /// environment variable is set (the CI rerun leg), mirroring
    /// `FUSION_NO_COMPACT`.
    pub enabled: bool,
    /// Extraction strategy.
    pub extractor: ExtractorKind,
    /// Hard cap on live e-nodes; exceeding it abandons the pass and
    /// returns the input term unchanged.
    pub max_enodes: usize,
    /// Rewrite-schedule iterations (each scans every class once).
    pub max_iters: u32,
    /// Congruence-rebuild sweeps per saturation, across all iterations;
    /// exceeding it abandons the pass (the AC rules can never loop the
    /// rebuild forever, but the cap makes that a proof-free guarantee).
    pub max_rebuilds: u32,
}

impl Default for EGraphConfig {
    fn default() -> Self {
        EGraphConfig {
            enabled: std::env::var_os("FUSION_NO_EGRAPH").is_none(),
            extractor: ExtractorKind::default(),
            max_enodes: 2048,
            max_iters: 4,
            max_rebuilds: 64,
        }
    }
}

impl EGraphConfig {
    /// A disabled config (identity pass).
    pub fn disabled() -> Self {
        EGraphConfig {
            enabled: false,
            ..EGraphConfig::default()
        }
    }
}

/// Counters of one (or, summed, many) e-graph passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EGraphStats {
    /// Canonical e-classes at the end of saturation.
    pub classes: u64,
    /// Live e-nodes at the end of saturation.
    pub enodes: u64,
    /// Successful rule-driven unions (rewrites applied).
    pub rewrites: u64,
    /// Passes that reached a change-free iteration before any cap.
    pub saturated: u64,
    /// Passes abandoned by the e-node or rebuild cap (the input term was
    /// returned unchanged).
    pub cap_hits: u64,
    /// Input DAG size (pool nodes), summed.
    pub nodes_before: u64,
    /// Output DAG size after extraction, summed (equals `nodes_before`
    /// for disabled, capped, or non-improving passes).
    pub nodes_after: u64,
}

impl EGraphStats {
    /// Sums another pass's counters into this one.
    pub fn absorb(&mut self, other: &EGraphStats) {
        self.classes += other.classes;
        self.enodes += other.enodes;
        self.rewrites += other.rewrites;
        self.saturated += other.saturated;
        self.cap_hits += other.cap_hits;
        self.nodes_before += other.nodes_before;
        self.nodes_after += other.nodes_after;
    }

    /// DAG nodes removed by extraction (0 when nothing improved).
    pub fn nodes_saved(&self) -> u64 {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}

// ---------------------------------------------------------------------------
// E-nodes and e-classes
// ---------------------------------------------------------------------------

/// Identifier of an e-class. Only canonical ids (see [`EGraph::find`]) name
/// live classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// An e-node: one [`TermKind`] constructor whose children are e-classes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ENode {
    /// Boolean constant.
    BoolConst(bool),
    /// Bit-vector constant.
    BvConst {
        /// Width in bits.
        width: u32,
        /// Value, `< 2^width`.
        value: u64,
    },
    /// Free variable (metadata lives in the originating pool).
    Var(VarIdx),
    /// Boolean negation.
    Not(ClassId),
    /// N-ary conjunction (children canonical, sorted, deduplicated).
    And(Vec<ClassId>),
    /// N-ary disjunction (children canonical, sorted, deduplicated).
    Or(Vec<ClassId>),
    /// Equality (operands sorted).
    Eq(ClassId, ClassId),
    /// If-then-else on a boolean condition.
    Ite {
        /// Condition class.
        cond: ClassId,
        /// Value when true.
        then_t: ClassId,
        /// Value when false.
        else_t: ClassId,
    },
    /// Binary bit-vector operation (commutative ops keep operands sorted).
    Bv(BvOp, ClassId, ClassId),
    /// Bit-vector comparison.
    Pred(BvPred, ClassId, ClassId),
}

impl ENode {
    /// Child classes, in stored order.
    pub fn children(&self) -> Children<'_, ClassId> {
        match *self {
            ENode::BoolConst(_) | ENode::BvConst { .. } | ENode::Var(_) => {
                Children::fixed([ClassId(0); 3], 0)
            }
            ENode::Not(x) => Children::fixed([x; 3], 1),
            ENode::And(ref xs) | ENode::Or(ref xs) => Children::Nary(xs.iter()),
            ENode::Eq(a, b) | ENode::Bv(_, a, b) | ENode::Pred(_, a, b) => {
                Children::fixed([a, b, b], 2)
            }
            ENode::Ite {
                cond,
                then_t,
                else_t,
            } => Children::fixed([cond, then_t, else_t], 3),
        }
    }
}

/// Per-class known-bits facts (mask of known positions + their values).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Bits {
    known: u64,
    value: u64,
}

impl Bits {
    fn low_run(&self) -> u32 {
        (!self.known).trailing_zeros()
    }

    /// Merges knowledge about the *same* value (e-class members are equal,
    /// so their known masks union).
    fn join_equal(&mut self, other: Bits) {
        let new = other.known & !self.known;
        self.known |= other.known;
        self.value |= other.value & new;
    }
}

#[derive(Debug, Clone)]
struct EClass {
    /// Member e-nodes; canonical after each rebuild, insertion-ordered.
    nodes: Vec<ENode>,
    sort: Sort,
    /// Constant value of the whole class, when known.
    konst: Option<Value>,
    /// Known-bits facts (BV classes; recomputed each schedule iteration).
    /// Includes seeded facts, so it may only *refute* (rewrite an `Eq` to
    /// `false`), never substitute — see [`EClass::bits_pure`].
    bits: Bits,
    /// Seed-free known-bits facts: knowledge derivable from the term
    /// structure alone. Only these may turn a class into a constant
    /// ([`EGraph::rule_bits_to_const`]) — substituting a value that only
    /// external facts imply would erase the variable's own constraints
    /// from the formula.
    bits_pure: Bits,
}

// ---------------------------------------------------------------------------
// The e-graph
// ---------------------------------------------------------------------------

/// Union-find over e-classes of [`ENode`]s with congruence closure.
#[derive(Debug)]
pub struct EGraph {
    parent: Vec<u32>,
    classes: Vec<EClass>,
    memo: FxHashMap<ENode, ClassId>,
    /// Classes merged since the last completed rebuild sweep.
    dirty: Vec<ClassId>,
    n_nodes: usize,
    rebuild_sweeps: u32,
    rewrites: u64,
    max_enodes: usize,
    max_rebuilds: u32,
}

impl EGraph {
    /// An empty e-graph with the given caps.
    pub fn new(cfg: &EGraphConfig) -> EGraph {
        EGraph {
            parent: Vec::new(),
            classes: Vec::new(),
            memo: FxHashMap::default(),
            dirty: Vec::new(),
            n_nodes: 0,
            rebuild_sweeps: 0,
            rewrites: 0,
            max_enodes: cfg.max_enodes,
            max_rebuilds: cfg.max_rebuilds,
        }
    }

    /// Canonical representative of `c`.
    pub fn find(&self, c: ClassId) -> ClassId {
        let mut i = c.0;
        while self.parent[i as usize] != i {
            i = self.parent[i as usize];
        }
        ClassId(i)
    }

    /// Live e-node count.
    pub fn enode_count(&self) -> usize {
        self.n_nodes
    }

    /// Canonical class count.
    pub fn class_count(&self) -> usize {
        (0..self.parent.len() as u32)
            .filter(|&i| self.parent[i as usize] == i)
            .count()
    }

    /// Member nodes of a canonical class.
    pub fn nodes(&self, c: ClassId) -> &[ENode] {
        &self.classes[self.find(c).index()].nodes
    }

    /// Sort of a class.
    pub fn sort(&self, c: ClassId) -> Sort {
        self.classes[self.find(c).index()].sort
    }

    /// Constant value of a class, when the analysis proved one.
    pub fn constant(&self, c: ClassId) -> Option<Value> {
        self.classes[self.find(c).index()].konst
    }

    /// All canonical class ids, ascending.
    pub fn canonical_ids(&self) -> Vec<ClassId> {
        (0..self.parent.len() as u32)
            .map(ClassId)
            .filter(|&c| self.parent[c.index()] == c.0)
            .collect()
    }

    fn fresh_class(&mut self, sort: Sort) -> ClassId {
        let id = ClassId(self.parent.len() as u32);
        self.parent.push(id.0);
        self.classes.push(EClass {
            nodes: Vec::new(),
            sort,
            konst: None,
            bits: Bits::default(),
            bits_pure: Bits::default(),
        });
        id
    }

    /// Canonicalizes an e-node: children through `find`, n-ary children
    /// sorted + deduplicated, commutative binary operands sorted.
    fn canon_node(&self, node: ENode) -> ENode {
        match node {
            ENode::BoolConst(_) | ENode::BvConst { .. } | ENode::Var(_) => node,
            ENode::Not(x) => ENode::Not(self.find(x)),
            ENode::And(xs) => {
                let mut ys: Vec<ClassId> = xs.into_iter().map(|x| self.find(x)).collect();
                ys.sort_unstable();
                ys.dedup();
                ENode::And(ys)
            }
            ENode::Or(xs) => {
                let mut ys: Vec<ClassId> = xs.into_iter().map(|x| self.find(x)).collect();
                ys.sort_unstable();
                ys.dedup();
                ENode::Or(ys)
            }
            ENode::Eq(a, b) => {
                let (a, b) = (self.find(a), self.find(b));
                if a <= b {
                    ENode::Eq(a, b)
                } else {
                    ENode::Eq(b, a)
                }
            }
            ENode::Ite {
                cond,
                then_t,
                else_t,
            } => ENode::Ite {
                cond: self.find(cond),
                then_t: self.find(then_t),
                else_t: self.find(else_t),
            },
            ENode::Bv(op, a, b) => {
                let (a, b) = (self.find(a), self.find(b));
                if op.commutative() && b < a {
                    ENode::Bv(op, b, a)
                } else {
                    ENode::Bv(op, a, b)
                }
            }
            ENode::Pred(p, a, b) => ENode::Pred(p, self.find(a), self.find(b)),
        }
    }

    /// A canonical node that is definitionally equal to one of its
    /// children (single-child conjunction/disjunction) collapses to it.
    fn identity_of(node: &ENode) -> Option<ClassId> {
        match node {
            ENode::And(xs) | ENode::Or(xs) if xs.len() == 1 => Some(xs[0]),
            _ => None,
        }
    }

    /// Constant evaluation of a node from its children's class constants.
    /// Short-circuits where sound (`false ∈ And`, `true ∈ Or`, known
    /// `Ite` condition).
    fn eval_node(&self, node: &ENode) -> Option<Value> {
        let kc = |c: ClassId| self.classes[self.find(c).index()].konst;
        match node {
            ENode::BoolConst(b) => Some(Value::Bool(*b)),
            ENode::BvConst { value, .. } => Some(Value::Bv(*value)),
            ENode::Var(_) => None,
            ENode::Not(x) => kc(*x).map(|v| Value::Bool(!v.as_bool())),
            ENode::And(xs) => {
                let mut all = true;
                for &x in xs {
                    match kc(x) {
                        Some(Value::Bool(false)) => return Some(Value::Bool(false)),
                        Some(Value::Bool(true)) => {}
                        _ => all = false,
                    }
                }
                all.then_some(Value::Bool(true))
            }
            ENode::Or(xs) => {
                let mut all = true;
                for &x in xs {
                    match kc(x) {
                        Some(Value::Bool(true)) => return Some(Value::Bool(true)),
                        Some(Value::Bool(false)) => {}
                        _ => all = false,
                    }
                }
                all.then_some(Value::Bool(false))
            }
            ENode::Eq(a, b) => {
                if self.find(*a) == self.find(*b) {
                    return Some(Value::Bool(true));
                }
                match (kc(*a), kc(*b)) {
                    (Some(x), Some(y)) => Some(Value::Bool(x == y)),
                    _ => None,
                }
            }
            ENode::Ite {
                cond,
                then_t,
                else_t,
            } => match kc(*cond) {
                Some(Value::Bool(true)) => kc(*then_t),
                Some(Value::Bool(false)) => kc(*else_t),
                _ => match (kc(*then_t), kc(*else_t)) {
                    (Some(x), Some(y)) if x == y => Some(x),
                    _ => None,
                },
            },
            ENode::Bv(op, a, b) => {
                let w = match self.sort(*a) {
                    Sort::Bv(w) => w,
                    Sort::Bool => return None,
                };
                match (kc(*a), kc(*b)) {
                    (Some(Value::Bv(x)), Some(Value::Bv(y))) => Some(Value::Bv(op.eval(x, y, w))),
                    _ => None,
                }
            }
            ENode::Pred(p, a, b) => {
                let w = match self.sort(*a) {
                    Sort::Bv(w) => w,
                    Sort::Bool => return None,
                };
                match (kc(*a), kc(*b)) {
                    (Some(Value::Bv(x)), Some(Value::Bv(y))) => Some(Value::Bool(p.eval(x, y, w))),
                    _ => None,
                }
            }
        }
    }

    fn node_sort(&self, node: &ENode) -> Sort {
        match node {
            ENode::BoolConst(_) => Sort::Bool,
            ENode::BvConst { width, .. } => Sort::Bv(*width),
            ENode::Var(_) => unreachable!("variables are added via add_var"),
            ENode::Not(_) | ENode::And(_) | ENode::Or(_) | ENode::Eq(..) | ENode::Pred(..) => {
                Sort::Bool
            }
            ENode::Ite { then_t, .. } => self.sort(*then_t),
            ENode::Bv(_, a, _) => self.sort(*a),
        }
    }

    /// Adds (or finds) a node, returning its class. Constant folding is
    /// built in: a node whose children decide its value is merged with
    /// that constant's class on the spot.
    pub fn add(&mut self, node: ENode) -> ClassId {
        let node = self.canon_node(node);
        if let Some(target) = Self::identity_of(&node) {
            return target;
        }
        if let Some(&c) = self.memo.get(&node) {
            return self.find(c);
        }
        let sort = self.node_sort(&node);
        let konst = self.eval_node(&node);
        let id = self.fresh_class(sort);
        self.classes[id.index()].nodes.push(node.clone());
        self.classes[id.index()].konst = konst;
        self.memo.insert(node, id);
        self.n_nodes += 1;
        if let Some(v) = konst {
            let kc = self.add_const(v, sort);
            self.union(id, kc);
        }
        id
    }

    /// Adds a variable class (population only; rules never mint variables).
    pub fn add_var(&mut self, v: VarIdx, sort: Sort) -> ClassId {
        let node = ENode::Var(v);
        if let Some(&c) = self.memo.get(&node) {
            return self.find(c);
        }
        let id = self.fresh_class(sort);
        self.classes[id.index()].nodes.push(node.clone());
        self.memo.insert(node, id);
        self.n_nodes += 1;
        id
    }

    fn add_const(&mut self, v: Value, sort: Sort) -> ClassId {
        let node = match (v, sort) {
            (Value::Bool(b), _) => ENode::BoolConst(b),
            (Value::Bv(x), Sort::Bv(w)) => ENode::BvConst {
                width: w,
                value: x & mask(w),
            },
            (Value::Bv(_), Sort::Bool) => unreachable!("bv constant with bool sort"),
        };
        if let Some(&c) = self.memo.get(&node) {
            return self.find(c);
        }
        let id = self.fresh_class(sort);
        self.classes[id.index()].nodes.push(node.clone());
        self.classes[id.index()].konst = Some(v);
        self.memo.insert(node, id);
        self.n_nodes += 1;
        id
    }

    /// Merges two classes. Returns whether anything changed. The smaller
    /// class id always wins, keeping representatives deterministic.
    pub fn union(&mut self, a: ClassId, b: ClassId) -> bool {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return false;
        }
        let (win, lose) = if a < b { (a, b) } else { (b, a) };
        debug_assert_eq!(
            self.classes[win.index()].sort,
            self.classes[lose.index()].sort,
            "union across sorts"
        );
        self.parent[lose.index()] = win.0;
        let lost = std::mem::take(&mut self.classes[lose.index()].nodes);
        self.classes[win.index()].nodes.extend(lost);
        let lost_konst = self.classes[lose.index()].konst.take();
        let lost_bits = self.classes[lose.index()].bits;
        let w = &mut self.classes[win.index()];
        if w.konst.is_none() {
            w.konst = lost_konst;
        }
        w.bits.join_equal(lost_bits);
        self.dirty.push(win);
        true
    }

    /// Restores congruence: canonicalizes every node, deduplicates, and
    /// merges classes that now share a node, sweeping until clean or the
    /// sweep cap is hit (returns `false` on cap).
    pub fn rebuild(&mut self) -> bool {
        while !self.dirty.is_empty() {
            if self.rebuild_sweeps >= self.max_rebuilds {
                return false;
            }
            self.rebuild_sweeps += 1;
            self.dirty.clear();
            self.memo.clear();
            let mut pending: Vec<(ClassId, ClassId)> = Vec::new();
            let ids = self.canonical_ids();
            for &cid in &ids {
                let nodes = std::mem::take(&mut self.classes[cid.index()].nodes);
                let mut kept: Vec<ENode> = Vec::with_capacity(nodes.len());
                let mut seen: FxHashSet<ENode> =
                    FxHashSet::with_capacity_and_hasher(nodes.len(), Default::default());
                for n in nodes {
                    let n = self.canon_node(n);
                    if let Some(target) = Self::identity_of(&n) {
                        pending.push((cid, target));
                        self.n_nodes -= 1;
                        continue;
                    }
                    if !seen.insert(n.clone()) {
                        self.n_nodes -= 1;
                        continue; // duplicate inside the class
                    }
                    match self.memo.get(&n) {
                        Some(&other) => {
                            // Congruent node in another class: merge.
                            pending.push((cid, other));
                            self.n_nodes -= 1;
                        }
                        None => {
                            self.memo.insert(n.clone(), cid);
                            kept.push(n);
                        }
                    }
                }
                self.classes[cid.index()].nodes = kept;
                // Upward constant propagation: a merge elsewhere may have
                // decided a child, deciding this class.
                if self.classes[cid.index()].konst.is_none() {
                    let found = self.classes[cid.index()]
                        .nodes
                        .iter()
                        .find_map(|n| self.eval_node(n));
                    if let Some(v) = found {
                        self.classes[cid.index()].konst = Some(v);
                        let sort = self.classes[cid.index()].sort;
                        pending.push((cid, ClassId(u32::MAX))); // placeholder
                        let at = pending.len() - 1;
                        let kc = self.add_const(v, sort);
                        pending[at].1 = kc;
                    }
                }
            }
            for (a, b) in pending {
                self.union(a, b);
            }
        }
        true
    }

    // -- population -------------------------------------------------------

    /// Populates the e-graph from a pool term, returning its class.
    pub fn add_term(&mut self, pool: &TermPool, t: TermId) -> ClassId {
        let mut map: FxHashMap<TermId, ClassId> = FxHashMap::default();
        // Iterative postorder over the DAG.
        let mut stack: Vec<(TermId, bool)> = vec![(t, false)];
        while let Some((u, expanded)) = stack.pop() {
            if map.contains_key(&u) {
                continue;
            }
            if !expanded {
                stack.push((u, true));
                for c in pool.children(u) {
                    if !map.contains_key(&c) {
                        stack.push((c, false));
                    }
                }
                continue;
            }
            let cls = match pool.kind(u) {
                TermKind::BoolConst(b) => self.add(ENode::BoolConst(*b)),
                TermKind::BvConst { width, value } => self.add(ENode::BvConst {
                    width: *width,
                    value: *value,
                }),
                TermKind::Var(v) => self.add_var(*v, pool.var_sort(*v)),
                TermKind::Not(x) => {
                    let xc = map[x];
                    self.add(ENode::Not(xc))
                }
                TermKind::And(xs) => {
                    let cs: Vec<ClassId> = xs.iter().map(|x| map[x]).collect();
                    self.add(ENode::And(cs))
                }
                TermKind::Or(xs) => {
                    let cs: Vec<ClassId> = xs.iter().map(|x| map[x]).collect();
                    self.add(ENode::Or(cs))
                }
                TermKind::Eq(a, b) => {
                    let (ac, bc) = (map[a], map[b]);
                    self.add(ENode::Eq(ac, bc))
                }
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                } => {
                    let (cc, tc, ec) = (map[cond], map[then_t], map[else_t]);
                    self.add(ENode::Ite {
                        cond: cc,
                        then_t: tc,
                        else_t: ec,
                    })
                }
                TermKind::Bv(op, a, b) => {
                    let (ac, bc) = (map[a], map[b]);
                    self.add(ENode::Bv(*op, ac, bc))
                }
                TermKind::Pred(p, a, b) => {
                    let (ac, bc) = (map[a], map[b]);
                    self.add(ENode::Pred(*p, ac, bc))
                }
            };
            map.insert(u, cls);
        }
        self.find(map[&t])
    }

    // -- known bits --------------------------------------------------------

    /// Recomputes per-class known-bits facts by bounded fixpoint iteration
    /// (class members are equal, so each node's transfer *adds* knowledge).
    ///
    /// Runs up to two fixpoints: first seed-blind, into `bits_pure` (the
    /// only knowledge allowed to *substitute*, via
    /// [`EGraph::rule_bits_to_const`]); then with the seeds folded in,
    /// into `bits` (which may additionally *refute* equalities, matching
    /// the seeded preprocessor's discipline). With no seeds the two maps
    /// coincide and the second fixpoint is skipped.
    fn analyze_bits(&mut self, seeds: &BitsSeeds) {
        let ids = self.canonical_ids();
        self.bits_fixpoint(&ids, &BitsSeeds::default());
        for &c in &ids {
            self.classes[c.index()].bits_pure = self.classes[c.index()].bits;
        }
        if !seeds.is_empty() {
            self.bits_fixpoint(&ids, seeds);
        }
    }

    fn bits_fixpoint(&mut self, ids: &[ClassId], seeds: &BitsSeeds) {
        for &c in ids {
            self.classes[c.index()].bits = Bits::default();
        }
        for _round in 0..4 {
            let mut changed = false;
            for &c in ids {
                let w = match self.classes[c.index()].sort {
                    Sort::Bv(w) => w,
                    Sort::Bool => continue,
                };
                let m = mask(w);
                let mut acc = self.classes[c.index()].bits;
                if let Some(Value::Bv(v)) = self.classes[c.index()].konst {
                    acc.join_equal(Bits {
                        known: m,
                        value: v & m,
                    });
                }
                let nodes = self.classes[c.index()].nodes.clone();
                for n in &nodes {
                    let t = self.transfer_bits(n, seeds, w);
                    acc.join_equal(t);
                }
                if acc != self.classes[c.index()].bits {
                    self.classes[c.index()].bits = acc;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn bits_of(&self, c: ClassId) -> Bits {
        self.classes[self.find(c).index()].bits
    }

    fn transfer_bits(&self, node: &ENode, seeds: &BitsSeeds, w: u32) -> Bits {
        let m = mask(w);
        match node {
            ENode::BvConst { value, .. } => Bits {
                known: m,
                value: value & m,
            },
            ENode::Var(v) => match seeds.get(*v) {
                Some((known, value)) => Bits {
                    known: known & m,
                    value: value & known & m,
                },
                None => Bits::default(),
            },
            ENode::Bv(op, a, b) => {
                let ka = self.bits_of(*a);
                let kb = self.bits_of(*b);
                match op {
                    BvOp::And => {
                        let known0 = (ka.known & !ka.value) | (kb.known & !kb.value);
                        let known1 = (ka.known & ka.value) & (kb.known & kb.value);
                        Bits {
                            known: (known0 | known1) & m,
                            value: known1 & m,
                        }
                    }
                    BvOp::Or => {
                        let known1 = (ka.known & ka.value) | (kb.known & kb.value);
                        let known0 = (ka.known & !ka.value) & (kb.known & !kb.value);
                        Bits {
                            known: (known0 | known1) & m,
                            value: known1 & m,
                        }
                    }
                    BvOp::Xor => {
                        let known = ka.known & kb.known;
                        Bits {
                            known,
                            value: (ka.value ^ kb.value) & known,
                        }
                    }
                    BvOp::Add | BvOp::Sub => {
                        let j = ka.low_run().min(kb.low_run()).min(w);
                        if j == 0 {
                            Bits::default()
                        } else {
                            let jm = mask(j);
                            let v = if *op == BvOp::Add {
                                ka.value.wrapping_add(kb.value)
                            } else {
                                ka.value.wrapping_sub(kb.value)
                            };
                            Bits {
                                known: jm,
                                value: v & jm,
                            }
                        }
                    }
                    BvOp::Mul => {
                        let j = ka.low_run().min(kb.low_run()).min(w);
                        if j == 0 {
                            Bits::default()
                        } else {
                            let jm = mask(j);
                            Bits {
                                known: jm,
                                value: ka.value.wrapping_mul(kb.value) & jm,
                            }
                        }
                    }
                    BvOp::Shl => match self.classes[self.find(*b).index()].konst {
                        Some(Value::Bv(k)) if k < w as u64 => {
                            let low = mask(k as u32);
                            Bits {
                                known: ((ka.known << k) | low) & m,
                                value: (ka.value << k) & m & ((ka.known << k) | low),
                            }
                        }
                        _ => Bits::default(),
                    },
                    BvOp::Lshr => match self.classes[self.find(*b).index()].konst {
                        Some(Value::Bv(k)) if k < w as u64 => {
                            let high = m & !(m >> k);
                            Bits {
                                known: ((ka.known >> k) | high) & m,
                                value: (ka.value >> k) & m,
                            }
                        }
                        _ => Bits::default(),
                    },
                    BvOp::Ashr | BvOp::Udiv | BvOp::Urem => Bits::default(),
                }
            }
            ENode::Ite { then_t, else_t, .. } => {
                let ka = self.bits_of(*then_t);
                let kb = self.bits_of(*else_t);
                let agree = ka.known & kb.known & !(ka.value ^ kb.value);
                Bits {
                    known: agree,
                    value: ka.value & agree,
                }
            }
            _ => Bits::default(),
        }
    }

    // -- rewrite schedule --------------------------------------------------

    /// One saturation: alternating rule application and congruence
    /// rebuilds under the configured bounds. Returns `false` when a cap
    /// was hit (the caller must fall through to the unsimplified term).
    pub fn saturate(
        &mut self,
        seeds: &BitsSeeds,
        cfg: &EGraphConfig,
        stats: &mut EGraphStats,
    ) -> bool {
        if !self.rebuild() {
            return false;
        }
        for _ in 0..cfg.max_iters {
            stats.iter_count();
            self.analyze_bits(seeds);
            let before_unions = self.rewrites;
            let before_nodes = self.n_nodes;
            self.apply_rules();
            if !self.rebuild() {
                return false;
            }
            if self.n_nodes > self.max_enodes {
                return false;
            }
            if self.rewrites == before_unions && self.n_nodes == before_nodes {
                stats.saturated += 1;
                break;
            }
        }
        stats.rewrites += self.rewrites;
        true
    }

    /// Scans a snapshot of every canonical class and applies every rule.
    fn apply_rules(&mut self) {
        let ids = self.canonical_ids();
        let mut work: Vec<(ClassId, ENode)> = Vec::new();
        for &c in &ids {
            for n in &self.classes[c.index()].nodes {
                work.push((c, n.clone()));
            }
        }
        for (c, n) in work {
            let c = self.find(c);
            self.rule_bits_to_const(c);
            match n {
                ENode::Not(x) => self.rules_not(c, x),
                ENode::And(ref xs) => self.rules_nary(c, xs.clone(), true),
                ENode::Or(ref xs) => self.rules_nary(c, xs.clone(), false),
                ENode::Eq(a, b) => self.rules_eq(c, a, b),
                ENode::Ite {
                    cond,
                    then_t,
                    else_t,
                } => self.rules_ite(c, cond, then_t, else_t),
                ENode::Bv(op, a, b) => self.rules_bv(c, op, a, b),
                ENode::Pred(p, a, b) => self.rules_pred(c, p, a, b),
                _ => {}
            }
        }
    }

    fn unite(&mut self, a: ClassId, b: ClassId) {
        if self.union(a, b) {
            self.rewrites += 1;
        }
    }

    fn unite_new(&mut self, c: ClassId, node: ENode) {
        let n = self.add(node);
        self.unite(c, n);
    }

    fn konst_bv(&self, c: ClassId) -> Option<u64> {
        match self.classes[self.find(c).index()].konst {
            Some(Value::Bv(v)) => Some(v),
            _ => None,
        }
    }

    fn konst_bool(&self, c: ClassId) -> Option<bool> {
        match self.classes[self.find(c).index()].konst {
            Some(Value::Bool(b)) => Some(b),
            _ => None,
        }
    }

    fn width_of(&self, c: ClassId) -> Option<u32> {
        match self.sort(c) {
            Sort::Bv(w) => Some(w),
            Sort::Bool => None,
        }
    }

    /// A class whose every bit is known *is* that constant. Only the
    /// seed-blind facts may fire here: knowledge that exists solely
    /// because of external seeds must not substitute a constant for a
    /// variable — the variable's own defining constraints would collapse
    /// to `true` and the formula would silently weaken.
    fn rule_bits_to_const(&mut self, c: ClassId) {
        let Some(w) = self.width_of(c) else { return };
        if self.classes[c.index()].konst.is_some() {
            return;
        }
        let bits = self.classes[self.find(c).index()].bits_pure;
        if bits.known == mask(w) {
            let kc = self.add_const(Value::Bv(bits.value & mask(w)), Sort::Bv(w));
            self.unite(c, kc);
        }
    }

    fn rules_not(&mut self, c: ClassId, x: ClassId) {
        let x = self.find(x);
        // Involution: ¬¬a = a; and comparison duals: ¬(a<b) = (b≤a).
        let peers = self.classes[x.index()].nodes.clone();
        for n in peers {
            match n {
                ENode::Not(y) => {
                    self.unite(c, y);
                }
                ENode::Pred(p, a, b) => {
                    let dual = match p {
                        BvPred::Ult => ENode::Pred(BvPred::Ule, b, a),
                        BvPred::Ule => ENode::Pred(BvPred::Ult, b, a),
                        BvPred::Slt => ENode::Pred(BvPred::Sle, b, a),
                        BvPred::Sle => ENode::Pred(BvPred::Slt, b, a),
                    };
                    self.unite_new(c, dual);
                }
                _ => {}
            }
        }
    }

    /// Conjunction/disjunction laws: flatten nested same-op children
    /// (bounded), drop the identity element, annihilate on the absorbing
    /// element, and refute `a ∧ ¬a` / prove `a ∨ ¬a`.
    fn rules_nary(&mut self, c: ClassId, xs: Vec<ClassId>, is_and: bool) {
        const MAX_FLAT: usize = 24;
        let mut leaves: Vec<ClassId> = Vec::new();
        let mut frontier: Vec<ClassId> = xs.iter().map(|&x| self.find(x)).collect();
        let mut guard: FxHashSet<ClassId> = FxHashSet::default();
        guard.insert(c);
        let mut overflow = false;
        while let Some(x) = frontier.pop() {
            if leaves.len() + frontier.len() > MAX_FLAT {
                overflow = true;
                break;
            }
            // Expand one nesting level when the child class itself holds a
            // same-op node (never through a class already on the path —
            // self-referential classes stay leaves).
            let sub = if guard.contains(&x) {
                None
            } else {
                self.classes[x.index()].nodes.iter().find_map(|n| match n {
                    ENode::And(ys) if is_and => Some(ys.clone()),
                    ENode::Or(ys) if !is_and => Some(ys.clone()),
                    _ => None,
                })
            };
            match sub {
                Some(ys) => {
                    guard.insert(x);
                    frontier.extend(ys.into_iter().map(|y| self.find(y)));
                }
                None => leaves.push(x),
            }
        }
        if overflow {
            leaves.extend(frontier);
        }
        leaves.sort_unstable();
        leaves.dedup();
        // Identity / annihilator on constants.
        let mut kept: Vec<ClassId> = Vec::new();
        for &l in &leaves {
            match self.konst_bool(l) {
                Some(b) if b == is_and => {} // identity element: drop
                Some(_) => {
                    // Absorbing element decides the whole class.
                    let k = self.add(ENode::BoolConst(!is_and));
                    self.unite(c, k);
                    return;
                }
                None => kept.push(l),
            }
        }
        // Complement pair: a and ¬a together decide the class.
        let kept_set: BTreeSet<ClassId> = kept.iter().copied().collect();
        for &l in &kept {
            let comp = self.classes[l.index()].nodes.iter().find_map(|n| match n {
                ENode::Not(y) => Some(self.find(*y)),
                _ => None,
            });
            if let Some(y) = comp {
                if kept_set.contains(&y) {
                    let k = self.add(ENode::BoolConst(!is_and));
                    self.unite(c, k);
                    return;
                }
            }
        }
        match kept.len() {
            0 => {
                let k = self.add(ENode::BoolConst(is_and));
                self.unite(c, k);
            }
            1 => self.unite(c, kept[0]),
            _ => {
                let node = if is_and {
                    ENode::And(kept)
                } else {
                    ENode::Or(kept)
                };
                self.unite_new(c, node);
            }
        }
    }

    fn rules_eq(&mut self, c: ClassId, a: ClassId, b: ClassId) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            let k = self.add(ENode::BoolConst(true));
            self.unite(c, k);
            return;
        }
        // Known-bits refutation (seeded): a bit known on both sides with
        // different values makes the equality false.
        if let (Some(wa), Some(_)) = (self.width_of(a), self.width_of(b)) {
            let (ba, bb) = (self.bits_of(a), self.bits_of(b));
            let both = ba.known & bb.known & mask(wa);
            if both & (ba.value ^ bb.value) != 0 {
                let k = self.add(ENode::BoolConst(false));
                self.unite(c, k);
                return;
            }
        }
        // Ite/const fusion: `ite(c, t, e) = k` with constant arms and k.
        for (ite_side, other) in [(a, b), (b, a)] {
            let Some(k) = self.konst_bv(other) else {
                continue;
            };
            let ite = self.classes[ite_side.index()]
                .nodes
                .iter()
                .find_map(|n| match n {
                    ENode::Ite {
                        cond,
                        then_t,
                        else_t,
                    } => Some((*cond, *then_t, *else_t)),
                    _ => None,
                });
            let Some((cond, then_t, else_t)) = ite else {
                continue;
            };
            let (Some(vt), Some(ve)) = (self.konst_bv(then_t), self.konst_bv(else_t)) else {
                continue;
            };
            match (vt == k, ve == k) {
                (true, true) => self.unite_new(c, ENode::BoolConst(true)),
                (true, false) => self.unite(c, self.find(cond)),
                (false, true) => self.unite_new(c, ENode::Not(cond)),
                (false, false) => self.unite_new(c, ENode::BoolConst(false)),
            }
            return;
        }
    }

    fn rules_ite(&mut self, c: ClassId, cond: ClassId, then_t: ClassId, else_t: ClassId) {
        let (then_t, else_t) = (self.find(then_t), self.find(else_t));
        if then_t == else_t {
            self.unite(c, then_t);
            return;
        }
        match self.konst_bool(cond) {
            Some(true) => self.unite(c, then_t),
            Some(false) => self.unite(c, else_t),
            None => {}
        }
    }

    fn rules_bv(&mut self, c: ClassId, op: BvOp, a: ClassId, b: ClassId) {
        let (a, b) = (self.find(a), self.find(b));
        let Some(w) = self.width_of(c) else { return };
        let m = mask(w);
        let ka = self.konst_bv(a);
        let kb = self.konst_bv(b);
        // Identity / absorption / annihilator laws.
        match op {
            BvOp::Add => {
                if ka == Some(0) {
                    self.unite(c, b);
                } else if kb == Some(0) {
                    self.unite(c, a);
                } else if a == b {
                    // x + x = x << 1 (strength-reduced doubling).
                    let one = self.add_const(Value::Bv(1), Sort::Bv(w));
                    self.unite_new(c, ENode::Bv(BvOp::Shl, a, one));
                }
            }
            BvOp::Sub => {
                if kb == Some(0) {
                    self.unite(c, a);
                } else if a == b {
                    let z = self.add_const(Value::Bv(0), Sort::Bv(w));
                    self.unite(c, z);
                }
            }
            BvOp::Mul => {
                for (k, other) in [(ka, b), (kb, a)] {
                    match k {
                        Some(0) => {
                            let z = self.add_const(Value::Bv(0), Sort::Bv(w));
                            self.unite(c, z);
                            return;
                        }
                        Some(1) => {
                            self.unite(c, other);
                            return;
                        }
                        Some(v) if v.is_power_of_two() => {
                            // Strength reduction: ×2^k = << k.
                            let sh =
                                self.add_const(Value::Bv(v.trailing_zeros() as u64), Sort::Bv(w));
                            self.unite_new(c, ENode::Bv(BvOp::Shl, other, sh));
                            return;
                        }
                        _ => {}
                    }
                }
                // Shift-add decomposition: ×k with few set bits blasts to
                // popcount−1 ripple adders instead of a full w-step
                // multiplier. The e-class keeps both forms; the cost model
                // (multiplies are expensive) lets extraction pick the sum
                // of shifts.
                for (k, other) in [(ka, b), (kb, a)] {
                    let Some(v) = k else { continue };
                    let v = v & m;
                    if v < 3 || v.is_power_of_two() || v.count_ones() > 4 {
                        continue;
                    }
                    let mut acc: Option<ClassId> = None;
                    for p in 0..w as u64 {
                        if v & (1u64 << p) == 0 {
                            continue;
                        }
                        let part = if p == 0 {
                            other
                        } else {
                            let sh = self.add_const(Value::Bv(p), Sort::Bv(w));
                            self.add(ENode::Bv(BvOp::Shl, other, sh))
                        };
                        acc = Some(match acc {
                            None => part,
                            Some(s) => self.add(ENode::Bv(BvOp::Add, s, part)),
                        });
                    }
                    if let Some(s) = acc {
                        self.unite(c, s);
                    }
                }
            }
            BvOp::Udiv => match kb {
                Some(1) => self.unite(c, a),
                Some(v) if v.is_power_of_two() && v != 0 => {
                    let sh = self.add_const(Value::Bv(v.trailing_zeros() as u64), Sort::Bv(w));
                    self.unite_new(c, ENode::Bv(BvOp::Lshr, a, sh));
                }
                _ => {}
            },
            BvOp::Urem => {
                if kb == Some(1) || a == b {
                    // x % 1 = 0; x % x = 0 (x % 0 = x per SMT-LIB, so the
                    // x = 0 case of x % x is still 0).
                    let z = self.add_const(Value::Bv(0), Sort::Bv(w));
                    self.unite(c, z);
                } else if let Some(v) = kb {
                    if v.is_power_of_two() {
                        let km = self.add_const(Value::Bv(v - 1), Sort::Bv(w));
                        self.unite_new(c, ENode::Bv(BvOp::And, a, km));
                    }
                }
            }
            BvOp::And => {
                if ka == Some(0) || kb == Some(0) {
                    let z = self.add_const(Value::Bv(0), Sort::Bv(w));
                    self.unite(c, z);
                } else if ka == Some(m) {
                    self.unite(c, b);
                } else if kb == Some(m) || a == b {
                    self.unite(c, a);
                }
            }
            BvOp::Or => {
                if ka == Some(m) || kb == Some(m) {
                    let f = self.add_const(Value::Bv(m), Sort::Bv(w));
                    self.unite(c, f);
                } else if ka == Some(0) {
                    self.unite(c, b);
                } else if kb == Some(0) || a == b {
                    self.unite(c, a);
                }
            }
            BvOp::Xor => {
                if a == b {
                    let z = self.add_const(Value::Bv(0), Sort::Bv(w));
                    self.unite(c, z);
                } else if ka == Some(0) {
                    self.unite(c, b);
                } else if kb == Some(0) {
                    self.unite(c, a);
                }
            }
            BvOp::Shl | BvOp::Lshr | BvOp::Ashr => {
                if kb == Some(0) {
                    self.unite(c, a);
                } else if ka == Some(0) {
                    let z = self.add_const(Value::Bv(0), Sort::Bv(w));
                    self.unite(c, z);
                }
            }
        }
        // Associativity + commutativity canonicalization: rebuild the
        // whole same-op chain right-leaning over sorted leaves with the
        // constants folded into one (commutative ops only).
        if op.commutative() {
            self.rule_ac_chain(c, op, w);
        }
    }

    /// Gathers the maximal same-op chain under `c` (bounded, cycle-safe),
    /// folds its constant leaves, sorts the rest, and re-adds the chain in
    /// canonical right-leaning shape. Different associations/commutations
    /// of one multiset of leaves all canonicalize to the same nodes and
    /// merge.
    fn rule_ac_chain(&mut self, c: ClassId, op: BvOp, w: u32) {
        const MAX_LEAVES: usize = 12;
        let identity: u64 = match op {
            BvOp::Add | BvOp::Or | BvOp::Xor => 0,
            BvOp::Mul => 1,
            BvOp::And => mask(w),
            _ => return,
        };
        let mut leaves: Vec<ClassId> = Vec::new();
        let mut acc: u64 = identity;
        let mut frontier: Vec<ClassId> = vec![c];
        let mut guard: FxHashSet<ClassId> = FxHashSet::default();
        let mut expanded_any = false;
        while let Some(x) = frontier.pop() {
            if leaves.len() > MAX_LEAVES {
                return; // chain too wide; leave it to smaller rules
            }
            let x = self.find(x);
            if let Some(v) = self.konst_bv(x) {
                acc = op.eval(acc, v, w);
                continue;
            }
            let sub = if guard.contains(&x) {
                None
            } else {
                self.classes[x.index()].nodes.iter().find_map(|n| match n {
                    ENode::Bv(o, a, b) if *o == op => Some((*a, *b)),
                    _ => None,
                })
            };
            match sub {
                Some((a, b)) => {
                    guard.insert(x);
                    if x != c {
                        expanded_any = true;
                    }
                    frontier.push(a);
                    frontier.push(b);
                }
                None => leaves.push(x),
            }
        }
        // Without nested structure or constant folding the chain is
        // already canonical — re-adding would only churn.
        if !expanded_any && acc == identity {
            return;
        }
        leaves.sort_unstable();
        let mut chain: Option<ClassId> = None;
        for &l in &leaves {
            chain = Some(match chain {
                None => l,
                Some(t) => self.add(ENode::Bv(op, t, l)),
            });
        }
        if acc != identity || chain.is_none() {
            let kc = self.add_const(Value::Bv(acc), Sort::Bv(w));
            chain = Some(match chain {
                None => kc,
                Some(t) => self.add(ENode::Bv(op, t, kc)),
            });
        }
        let root = chain.expect("chain has at least the constant");
        self.unite(c, root);
    }

    fn rules_pred(&mut self, c: ClassId, p: BvPred, a: ClassId, b: ClassId) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            // a<a is false, a≤a is true.
            let v = matches!(p, BvPred::Ule | BvPred::Sle);
            self.unite_new(c, ENode::BoolConst(v));
            return;
        }
        let Some(w) = self.width_of(a) else { return };
        // Ite/cmp fusion: p(ite(c,t,e), k) with constant t, e, k folds to
        // the condition, its negation, or a constant.
        for (ite_side, other, swapped) in [(a, b, false), (b, a, true)] {
            let Some(k) = self.konst_bv(other) else {
                continue;
            };
            let ite = self.classes[ite_side.index()]
                .nodes
                .iter()
                .find_map(|n| match n {
                    ENode::Ite {
                        cond,
                        then_t,
                        else_t,
                    } => Some((*cond, *then_t, *else_t)),
                    _ => None,
                });
            let Some((cond, then_t, else_t)) = ite else {
                continue;
            };
            let (Some(vt), Some(ve)) = (self.konst_bv(then_t), self.konst_bv(else_t)) else {
                continue;
            };
            let (bt, be) = if swapped {
                (p.eval(k, vt, w), p.eval(k, ve, w))
            } else {
                (p.eval(vt, k, w), p.eval(ve, k, w))
            };
            match (bt, be) {
                (true, true) => self.unite_new(c, ENode::BoolConst(true)),
                (false, false) => self.unite_new(c, ENode::BoolConst(false)),
                (true, false) => self.unite(c, self.find(cond)),
                (false, true) => self.unite_new(c, ENode::Not(cond)),
            }
            return;
        }
    }
}

impl EGraphStats {
    fn iter_count(&mut self) {
        // Not a public counter — `rewrites`/`saturated` carry the signal —
        // but keeping the hook makes the schedule's shape explicit.
    }
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Per-node cost: rough bit-blasting weight. All costs are ≥ 1, which is
/// what makes minimum-cost selections acyclic. Constants are strictly
/// cheaper than variables so a class containing both always extracts the
/// constant — picking the variable would leave it free in the output
/// after its (now-trivial) defining equation has been dropped.
fn node_cost(n: &ENode) -> u64 {
    match n {
        ENode::BoolConst(_) | ENode::BvConst { .. } => 1,
        ENode::Var(_) => 2,
        ENode::Not(_) => 2,
        ENode::And(xs) | ENode::Or(xs) => 1 + xs.len() as u64,
        ENode::Eq(..) | ENode::Pred(..) => 2,
        ENode::Ite { .. } => 3,
        ENode::Bv(op, ..) => match op {
            // A w-bit multiplier blasts to ~w ripple adders; division is
            // worse still. Pricing them near their clause weight is what
            // makes shift-add decompositions win extraction.
            BvOp::Mul => 24,
            BvOp::Udiv | BvOp::Urem => 48,
            _ => 2,
        },
    }
}

/// [`node_cost`] over a pool term, for comparing an extraction against the
/// input it came from.
fn term_cost(n: &TermKind) -> u64 {
    match n {
        TermKind::BoolConst(_) | TermKind::BvConst { .. } => 1,
        TermKind::Var(_) => 2,
        TermKind::Not(_) => 2,
        TermKind::And(xs) | TermKind::Or(xs) => 1 + xs.len() as u64,
        TermKind::Eq(..) | TermKind::Pred(..) => 2,
        TermKind::Ite { .. } => 3,
        TermKind::Bv(op, ..) => match op {
            BvOp::Mul => 24,
            BvOp::Udiv | BvOp::Urem => 48,
            _ => 2,
        },
    }
}

/// Sum of [`term_cost`] over the distinct nodes of `t`'s DAG (iterative).
fn dag_cost(pool: &TermPool, t: TermId) -> u64 {
    let mut seen = FxHashSet::default();
    let mut stack = vec![t];
    let mut total = 0u64;
    while let Some(u) = stack.pop() {
        if !seen.insert(u) {
            continue;
        }
        let kind = pool.kind(u);
        total = total.saturating_add(term_cost(kind));
        match kind {
            TermKind::Not(a) => stack.push(*a),
            TermKind::And(xs) | TermKind::Or(xs) => stack.extend(xs.iter().copied()),
            TermKind::Eq(a, b) | TermKind::Bv(_, a, b) | TermKind::Pred(_, a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                stack.push(*cond);
                stack.push(*then_t);
                stack.push(*else_t);
            }
            _ => {}
        }
    }
    total
}

/// A per-class node selection: `choice[class] = Some(index into
/// `EGraph::nodes(class)`)` for every class reachable from the root.
pub type Extraction = Vec<Option<usize>>;

/// A cost-based extractor lowering a saturated e-graph to one node choice
/// per class (the extraction-gym interface shape).
pub trait Extractor {
    /// Stable name for tables and stats.
    fn name(&self) -> &'static str;
    /// Chooses one node per canonical class (indices into
    /// [`EGraph::nodes`]); `None` for unreachable/unchoosable classes.
    fn choose(&self, eg: &EGraph, root: ClassId) -> Extraction;
}

/// Constructs the extractor for a [`ExtractorKind`].
pub fn extractor_for(kind: ExtractorKind) -> Box<dyn Extractor> {
    match kind {
        ExtractorKind::BottomUp => Box::new(BottomUpExtractor),
        ExtractorKind::GreedyDag => Box::new(GreedyDagExtractor),
        ExtractorKind::GlobalGreedyDag => Box::new(GlobalGreedyDagExtractor),
    }
}

/// Greedy bottom-up **tree-cost** extraction: the classic Bellman fixpoint
/// `cost(C) = min over nodes (node_cost + Σ cost(child))`.
pub struct BottomUpExtractor;

impl Extractor for BottomUpExtractor {
    fn name(&self) -> &'static str {
        ExtractorKind::BottomUp.name()
    }

    fn choose(&self, eg: &EGraph, _root: ClassId) -> Extraction {
        let n = eg.parent.len();
        let mut cost: Vec<u64> = vec![u64::MAX; n];
        let mut pick: Extraction = vec![None; n];
        let ids = eg.canonical_ids();
        loop {
            let mut changed = false;
            for &c in &ids {
                for (i, node) in eg.classes[c.index()].nodes.iter().enumerate() {
                    let mut total = node_cost(node);
                    let mut ok = true;
                    for ch in node.children() {
                        let cc = cost[eg.find(ch).index()];
                        if cc == u64::MAX {
                            ok = false;
                            break;
                        }
                        total = total.saturating_add(cc);
                    }
                    if ok && total < cost[c.index()] {
                        cost[c.index()] = total;
                        pick[c.index()] = Some(i);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        pick
    }
}

/// Greedy **DAG-cost** extraction: each class carries the set of classes
/// its chosen term reaches, so shared subterms are charged once.
/// Synchronous sweeps with a fixed bound keep it deterministic even if the
/// greedy costs oscillate on cyclic e-graphs.
pub struct GreedyDagExtractor;

impl Extractor for GreedyDagExtractor {
    fn name(&self) -> &'static str {
        ExtractorKind::GreedyDag.name()
    }

    fn choose(&self, eg: &EGraph, _root: ClassId) -> Extraction {
        const MAX_SWEEPS: usize = 24;
        let n = eg.parent.len();
        let mut state: Vec<Option<(usize, BTreeSet<ClassId>, u64)>> = vec![None; n];
        let ids = eg.canonical_ids();
        for _ in 0..MAX_SWEEPS {
            let mut changed = false;
            for &c in &ids {
                let mut best: Option<(usize, BTreeSet<ClassId>, u64)> = None;
                'nodes: for (i, node) in eg.classes[c.index()].nodes.iter().enumerate() {
                    let mut reach: BTreeSet<ClassId> = BTreeSet::new();
                    reach.insert(c);
                    for ch in node.children() {
                        let ch = eg.find(ch);
                        match &state[ch.index()] {
                            Some((_, r, _)) => {
                                if r.contains(&c) {
                                    continue 'nodes; // would cycle through c
                                }
                                reach.extend(r.iter().copied());
                            }
                            None => continue 'nodes,
                        }
                    }
                    // DAG cost: each reached class charges its chosen
                    // node once; this class charges the candidate node.
                    let mut total = node_cost(node);
                    let mut ok = true;
                    for &r in &reach {
                        if r == c {
                            continue;
                        }
                        match &state[r.index()] {
                            Some((j, _, _)) => {
                                total = total
                                    .saturating_add(node_cost(&eg.classes[r.index()].nodes[*j]))
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(_, _, bc)| total < *bc) {
                        best = Some((i, reach, total));
                    }
                }
                if let Some(b) = best {
                    let replace = match &state[c.index()] {
                        None => true,
                        Some((i, _, cost)) => b.2 < *cost || (b.2 == *cost && b.0 < *i),
                    };
                    if replace && state[c.index()].as_ref() != Some(&b) {
                        state[c.index()] = Some(b);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        state.into_iter().map(|s| s.map(|(i, _, _)| i)).collect()
    }
}

/// Global greedy DAG extraction in the extraction-gym shape: a term dag
/// whose entries carry per-term reachability sets, improvements pushed to
/// parents through a worklist. Distinct from [`GreedyDagExtractor`] in
/// that candidate terms are built asynchronously from whatever each
/// child's best term is at the time, so improvements cascade globally.
pub struct GlobalGreedyDagExtractor;

impl Extractor for GlobalGreedyDagExtractor {
    fn name(&self) -> &'static str {
        ExtractorKind::GlobalGreedyDag.name()
    }

    fn choose(&self, eg: &EGraph, _root: ClassId) -> Extraction {
        let n = eg.parent.len();
        let ids = eg.canonical_ids();
        // parents[c] = (parent class, node index) pairs referencing c.
        let mut parents: Vec<Vec<(ClassId, usize)>> = vec![Vec::new(); n];
        for &c in &ids {
            for (i, node) in eg.classes[c.index()].nodes.iter().enumerate() {
                let mut seen = BTreeSet::new();
                for ch in node.children() {
                    let ch = eg.find(ch);
                    if seen.insert(ch) {
                        parents[ch.index()].push((c, i));
                    }
                }
            }
        }
        // Best term per class: (node index, reach set, dag cost).
        let mut best: Vec<Option<(usize, BTreeSet<ClassId>, u64)>> = vec![None; n];
        let mut queue: BTreeSet<ClassId> = BTreeSet::new();
        // Seed with leaves.
        for &c in &ids {
            for (i, node) in eg.classes[c.index()].nodes.iter().enumerate() {
                if node.children().len() == 0 {
                    let mut reach = BTreeSet::new();
                    reach.insert(c);
                    let cand = (i, reach, node_cost(node));
                    if best[c.index()]
                        .as_ref()
                        .is_none_or(|(bi, _, bc)| cand.2 < *bc || (cand.2 == *bc && i < *bi))
                    {
                        best[c.index()] = Some(cand);
                        queue.insert(c);
                    }
                }
            }
        }
        let mut budget = 16usize.saturating_mul(n.max(1));
        while let Some(c) = queue.pop_first() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            for &(p, i) in &parents[c.index()] {
                let node = &eg.classes[p.index()].nodes[i];
                let mut reach: BTreeSet<ClassId> = BTreeSet::new();
                reach.insert(p);
                let mut ok = true;
                for ch in node.children() {
                    let ch = eg.find(ch);
                    match &best[ch.index()] {
                        Some((_, r, _)) => {
                            if r.contains(&p) {
                                ok = false;
                                break;
                            }
                            reach.extend(r.iter().copied());
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let mut total = node_cost(node);
                for &r in &reach {
                    if r == p {
                        continue;
                    }
                    match &best[r.index()] {
                        Some((j, _, _)) => {
                            total =
                                total.saturating_add(node_cost(&eg.classes[r.index()].nodes[*j]))
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let improves = best[p.index()]
                    .as_ref()
                    .is_none_or(|(bi, _, bc)| total < *bc || (total == *bc && i < *bi));
                if improves {
                    best[p.index()] = Some((i, reach, total));
                    queue.insert(p);
                }
            }
        }
        best.into_iter().map(|s| s.map(|(i, _, _)| i)).collect()
    }
}

/// Lowers an extraction back to the pool, iteratively (no recursion, so
/// deep conditions cannot overflow the stack). Returns `None` when the
/// root has no chosen node (extraction failed; callers fall through).
pub fn lower(
    eg: &EGraph,
    choices: &Extraction,
    root: ClassId,
    pool: &mut TermPool,
) -> Option<TermId> {
    let root = eg.find(root);
    let mut done: FxHashMap<ClassId, TermId> = FxHashMap::default();
    let mut stack: Vec<ClassId> = vec![root];
    while let Some(&c) = stack.last() {
        let c = eg.find(c);
        if done.contains_key(&c) {
            stack.pop();
            continue;
        }
        let i = (*choices.get(c.index())?)?;
        let node = &eg.classes[c.index()].nodes[i];
        let mut missing = false;
        for ch in node.children() {
            let ch = eg.find(ch);
            if !done.contains_key(&ch) {
                stack.push(ch);
                missing = true;
            }
        }
        if missing {
            continue;
        }
        stack.pop();
        let t = match node {
            ENode::BoolConst(b) => pool.bool_const(*b),
            ENode::BvConst { width, value } => pool.bv_const(*value, *width),
            ENode::Var(v) => {
                let name = pool.var_name(*v).to_owned();
                let sort = pool.var_sort(*v);
                pool.var(&name, sort)
            }
            ENode::Not(x) => {
                let xt = done[&eg.find(*x)];
                pool.not(xt)
            }
            ENode::And(xs) => {
                let ts: Vec<TermId> = xs.iter().map(|x| done[&eg.find(*x)]).collect();
                pool.and(&ts)
            }
            ENode::Or(xs) => {
                let ts: Vec<TermId> = xs.iter().map(|x| done[&eg.find(*x)]).collect();
                pool.or(&ts)
            }
            ENode::Eq(a, b) => {
                let (at, bt) = (done[&eg.find(*a)], done[&eg.find(*b)]);
                pool.eq(at, bt)
            }
            ENode::Ite {
                cond,
                then_t,
                else_t,
            } => {
                let (ct, tt, et) = (
                    done[&eg.find(*cond)],
                    done[&eg.find(*then_t)],
                    done[&eg.find(*else_t)],
                );
                pool.ite(ct, tt, et)
            }
            ENode::Bv(op, a, b) => {
                let (at, bt) = (done[&eg.find(*a)], done[&eg.find(*b)]);
                pool.bv(*op, at, bt)
            }
            ENode::Pred(p, a, b) => {
                let (at, bt) = (done[&eg.find(*a)], done[&eg.find(*b)]);
                pool.pred(*p, at, bt)
            }
        };
        done.insert(c, t);
    }
    done.get(&root).copied()
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

/// Simplifies `t` by bounded equality saturation and cost-based
/// extraction. Pure term-to-term equivalence: for every assignment
/// consistent with `seeds`, the result evaluates exactly like `t`. On any
/// cap hit or non-improvement the input term is returned unchanged.
pub fn egraph_simplify(
    pool: &mut TermPool,
    t: TermId,
    seeds: &BitsSeeds,
    cfg: &EGraphConfig,
) -> (TermId, EGraphStats) {
    let mut stats = EGraphStats::default();
    if !cfg.enabled {
        return (t, stats);
    }
    let before = pool.dag_size(t);
    stats.nodes_before = before as u64;
    stats.nodes_after = before as u64;
    if matches!(
        pool.kind(t),
        TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var(_)
    ) {
        return (t, stats);
    }
    if before > cfg.max_enodes {
        stats.cap_hits = 1;
        return (t, stats);
    }
    let mut eg = EGraph::new(cfg);
    let root = eg.add_term(pool, t);
    let completed = eg.saturate(seeds, cfg, &mut stats);
    stats.classes = eg.class_count() as u64;
    stats.enodes = eg.enode_count() as u64;
    if !completed {
        // Clean fall-through: caps guarantee bounded work, never a worse
        // answer.
        stats.cap_hits = 1;
        stats.rewrites = eg.rewrites;
        return (t, stats);
    }
    let root = eg.find(root);
    let extractor = extractor_for(cfg.extractor);
    let choices = extractor.choose(&eg, root);
    let Some(out) = lower(&eg, &choices, root, pool) else {
        return (t, stats);
    };
    debug_assert_eq!(pool.sort(out), pool.sort(t), "extraction changed sort");
    // Keep the extraction only when it does not cost more than the input
    // under the blasting-weight model. Node count alone would reject
    // shift-add decompositions, which trade a few extra cheap nodes for
    // the removal of a w-step multiplier.
    if dag_cost(pool, out) <= dag_cost(pool, t) {
        stats.nodes_after = pool.dag_size(out) as u64;
        (out, stats)
    } else {
        (t, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::BvPred;
    use std::collections::HashMap;

    fn cfg() -> EGraphConfig {
        EGraphConfig {
            enabled: true,
            ..EGraphConfig::default()
        }
    }

    fn eval_eq(pool: &TermPool, a: TermId, b: TermId, envs: &[HashMap<VarIdx, u64>]) {
        for env in envs {
            assert_eq!(
                pool.eval(a, env),
                pool.eval(b, env),
                "semantics changed under {env:?}: {} vs {}",
                pool.display(a),
                pool.display(b)
            );
        }
    }

    fn envs_for(pool: &TermPool, t: TermId) -> Vec<HashMap<VarIdx, u64>> {
        let vars = pool.free_vars(t);
        let mut envs = Vec::new();
        for seed in [0u64, 1, 7, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9abc_def0] {
            let mut env = HashMap::new();
            let mut s = seed;
            for &v in &vars {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                env.insert(v, s);
            }
            envs.push(env);
        }
        envs
    }

    #[test]
    fn constant_folding_through_the_graph() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let a = p.bv_const(3, 32);
        let b = p.bv_const(4, 32);
        let xa = p.bv(BvOp::Add, x, a);
        let l = p.bv(BvOp::Add, xa, b); // (x+3)+4
        let seven = p.bv_const(7, 32);
        let r = p.bv(BvOp::Add, x, seven); // x+7
        let f = p.eq(l, r); // equal only after reassociating + folding
        let (out, st) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &cfg());
        assert_eq!(p.as_bool_const(out), Some(true), "{}", p.display(out));
        assert!(st.rewrites > 0);
    }

    #[test]
    fn ac_canonicalization_joins_associations() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let z = p.var("z", Sort::Bv(16));
        let xy = p.bv(BvOp::Add, x, y);
        let l = p.bv(BvOp::Add, xy, z); // (x+y)+z
        let yz = p.bv(BvOp::Add, y, z);
        let r = p.bv(BvOp::Add, x, yz); // x+(y+z)
        let f = p.eq(l, r);
        let (out, _) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &cfg());
        assert_eq!(p.as_bool_const(out), Some(true), "{}", p.display(out));
    }

    #[test]
    fn strength_reduction_prefers_shift() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let eight = p.bv_const(8, 32);
        let m = p.bv(BvOp::Mul, x, eight);
        let k = p.bv_const(40, 32);
        let f = p.eq(m, k);
        let (out, _) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &cfg());
        // The extracted side uses a shift, not the multiply.
        let txt = p.display(out);
        assert!(!txt.contains("mul"), "{txt}");
        eval_eq(&p, f, out, &envs_for(&p, f));
    }

    #[test]
    fn identity_and_annihilator_laws() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let z = p.bv_const(0, 8);
        let add0 = p.bv(BvOp::Add, x, z);
        let sub = p.bv(BvOp::Sub, add0, x); // (x+0)-x = 0
        let f = p.eq(sub, z);
        let (out, _) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &cfg());
        assert_eq!(p.as_bool_const(out), Some(true), "{}", p.display(out));
    }

    #[test]
    fn cmp_fusion_folds_ite() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let c = p.pred(BvPred::Ult, x, y);
        let one = p.bv_const(1, 32);
        let zero = p.bv_const(0, 32);
        let ite = p.ite(c, one, zero);
        let f = p.eq(ite, one); // (x<y ? 1 : 0) == 1  ⇔  x<y
        let (out, _) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &cfg());
        assert_eq!(out, c, "{}", p.display(out));
    }

    #[test]
    fn seeded_known_bits_refute_parity() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let vx = match *p.kind(x) {
            TermKind::Var(v) => v,
            _ => unreachable!(),
        };
        let five = p.bv_const(5, 32);
        let f = p.eq(x, five); // x even (seeded) vs 5: impossible
        let mut seeds = BitsSeeds::new();
        seeds.insert(vx, 1, 0); // low bit known 0
        let (out, _) = egraph_simplify(&mut p, f, &seeds, &cfg());
        assert_eq!(p.as_bool_const(out), Some(false), "{}", p.display(out));
        // Unseeded, the equality must survive.
        let (out2, _) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &cfg());
        assert!(p.as_bool_const(out2).is_none());
    }

    #[test]
    fn every_extractor_preserves_semantics() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let four = p.bv_const(4, 16);
        let m = p.bv(BvOp::Mul, x, four);
        let yx = p.bv(BvOp::Add, y, x);
        let xy = p.bv(BvOp::Add, x, y);
        let e1 = p.eq(m, xy);
        let lt = p.pred(BvPred::Ult, yx, m);
        let z = p.bv(BvOp::Xor, x, x);
        let zero = p.bv_const(0, 16);
        let e2 = p.eq(z, zero);
        let f = p.and(&[e1, lt, e2]);
        let envs = envs_for(&p, f);
        for kind in ExtractorKind::ALL {
            let mut c = cfg();
            c.extractor = kind;
            let (out, st) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &c);
            eval_eq(&p, f, out, &envs);
            assert!(st.nodes_after <= st.nodes_before, "{kind:?}");
        }
    }

    #[test]
    fn caps_fall_through_to_input() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let mut t = x;
        for i in 1..40u64 {
            let k = p.bv_const(i | 1, 32);
            t = p.bv(BvOp::Mul, t, k);
        }
        let z = p.bv_const(9, 32);
        let f = p.eq(t, z);
        let tiny = EGraphConfig {
            enabled: true,
            max_enodes: 8,
            ..EGraphConfig::default()
        };
        let (out, st) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &tiny);
        assert_eq!(out, f, "cap hit must return the input unchanged");
        assert_eq!(st.cap_hits, 1);
        assert_eq!(st.nodes_saved(), 0);
    }

    #[test]
    fn disabled_pass_is_identity() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let two = p.bv_const(2, 8);
        let m = p.bv(BvOp::Mul, x, two);
        let f = p.eq(m, two);
        let (out, st) = egraph_simplify(&mut p, f, &BitsSeeds::new(), &EGraphConfig::disabled());
        assert_eq!(out, f);
        assert_eq!(st.rewrites, 0);
        assert_eq!(st.nodes_saved(), 0);
    }

    #[test]
    fn not_pred_dual_and_complement_pair() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let lt = p.pred(BvPred::Ult, x, y);
        let nlt = p.not(lt);
        let ge = p.pred(BvPred::Ule, y, x);
        let f1 = p.eq(nlt, ge); // ¬(x<y) ⇔ y≤x — polymorphic eq on bools
        let (out, _) = egraph_simplify(&mut p, f1, &BitsSeeds::new(), &cfg());
        assert_eq!(p.as_bool_const(out), Some(true), "{}", p.display(out));
        // a ∧ ¬a is false even when hidden behind distinct nodes.
        let contradiction = p.and2(lt, nlt);
        let (out2, _) = egraph_simplify(&mut p, contradiction, &BitsSeeds::new(), &cfg());
        assert_eq!(p.as_bool_const(out2), Some(false), "{}", p.display(out2));
    }

    #[test]
    fn deterministic_across_runs() {
        let mut p1 = TermPool::new();
        let mut p2 = TermPool::new();
        let build = |p: &mut TermPool| {
            let x = p.var("x", Sort::Bv(32));
            let y = p.var("y", Sort::Bv(32));
            let two = p.bv_const(2, 32);
            let m = p.bv(BvOp::Mul, x, two);
            let s = p.bv(BvOp::Add, m, y);
            let s2 = p.bv(BvOp::Add, y, m);
            let e = p.eq(s, s2);
            let u = p.pred(BvPred::Ult, s, m);
            p.and2(e, u)
        };
        let f1 = build(&mut p1);
        let f2 = build(&mut p2);
        let (o1, s1) = egraph_simplify(&mut p1, f1, &BitsSeeds::new(), &cfg());
        let (o2, s2) = egraph_simplify(&mut p2, f2, &BitsSeeds::new(), &cfg());
        assert_eq!(p1.display(o1), p2.display(o2));
        assert_eq!(s1.rewrites, s2.rewrites);
        assert_eq!(s1.classes, s2.classes);
    }
}
