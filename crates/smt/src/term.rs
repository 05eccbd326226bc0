//! Hash-consed term DAG for the bit-vector theory.
//!
//! Every term lives in a [`TermPool`] and is identified by a [`TermId`];
//! structurally equal terms share one node. Constructors perform the
//! *bottom-up* simplifications a production solver applies at term-build
//! time (constant folding, unit laws, involution, commutative
//! normalization) — the heavier, named preprocessing passes of §4 of the
//! paper live in [`crate::preprocess`].
//!
//! The node count of a pool — and the *retained* node count of a formula —
//! is the honest "condition size" metric the paper's complexity arguments
//! are about; see [`TermPool::dag_size`] and [`TermPool::tree_size`].

use crate::fxhash::FxHashMap;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;

/// The sort of a term: boolean or a fixed-width bit vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Booleans.
    Bool,
    /// Bit vectors of the given width (1..=64).
    Bv(u32),
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Bv(w) => write!(f, "Bv{w}"),
        }
    }
}

/// Identifies a term within its [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a variable within its [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarIdx(pub u32);

impl VarIdx {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary bit-vector operators (BV × BV → BV, same width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// `x / 0 = all-ones` (SMT-LIB).
    Udiv,
    /// `x % 0 = x` (SMT-LIB).
    Urem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (amounts >= width give 0).
    Shl,
    /// Logical right shift (amounts >= width give 0).
    Lshr,
    /// Arithmetic right shift (amounts >= width replicate the sign).
    Ashr,
}

impl BvOp {
    /// Whether argument order is irrelevant.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BvOp::Add | BvOp::Mul | BvOp::And | BvOp::Or | BvOp::Xor
        )
    }

    /// Concrete evaluation at the given width.
    #[allow(clippy::manual_checked_ops)] // x/0 = all-ones is SMT-LIB semantics
    pub fn eval(self, a: u64, b: u64, width: u32) -> u64 {
        let mask = mask(width);
        let r = match self {
            BvOp::Add => a.wrapping_add(b),
            BvOp::Sub => a.wrapping_sub(b),
            BvOp::Mul => a.wrapping_mul(b),
            BvOp::Udiv => {
                if b == 0 {
                    mask
                } else {
                    a / b
                }
            }
            BvOp::Urem => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            BvOp::And => a & b,
            BvOp::Or => a | b,
            BvOp::Xor => a ^ b,
            BvOp::Shl => {
                if b >= width as u64 {
                    0
                } else {
                    a << b
                }
            }
            BvOp::Lshr => {
                if b >= width as u64 {
                    0
                } else {
                    a >> b
                }
            }
            BvOp::Ashr => {
                let sign = (a >> (width - 1)) & 1;
                if b >= width as u64 {
                    if sign == 1 {
                        mask
                    } else {
                        0
                    }
                } else if sign == 1 {
                    ((a >> b) | !(mask >> b)) & mask
                } else {
                    a >> b
                }
            }
        };
        r & mask
    }
}

/// Bit-vector predicates (BV × BV → Bool). Equality is separate ([`TermKind::Eq`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvPred {
    /// Unsigned `<`.
    Ult,
    /// Unsigned `<=`.
    Ule,
    /// Signed `<`.
    Slt,
    /// Signed `<=`.
    Sle,
}

impl BvPred {
    /// Concrete evaluation at the given width.
    pub fn eval(self, a: u64, b: u64, width: u32) -> bool {
        match self {
            BvPred::Ult => a < b,
            BvPred::Ule => a <= b,
            BvPred::Slt => to_signed(a, width) < to_signed(b, width),
            BvPred::Sle => to_signed(a, width) <= to_signed(b, width),
        }
    }
}

/// All-ones mask of the given width.
pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Two's-complement reinterpretation.
pub fn to_signed(v: u64, width: u32) -> i64 {
    let m = mask(width);
    let v = v & m;
    if width < 64 && (v >> (width - 1)) & 1 == 1 {
        (v | !m) as i64
    } else {
        v as i64
    }
}

/// A term node. Obtain instances through [`TermPool`] constructors only.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// Boolean constant.
    BoolConst(bool),
    /// Bit-vector constant (value is masked to `width`).
    BvConst {
        /// Width in bits.
        width: u32,
        /// Value, `< 2^width`.
        value: u64,
    },
    /// A free variable; metadata lives in the pool.
    Var(VarIdx),
    /// Boolean negation.
    Not(TermId),
    /// N-ary conjunction (flattened, deduplicated, id-sorted).
    And(Vec<TermId>),
    /// N-ary disjunction (flattened, deduplicated, id-sorted).
    Or(Vec<TermId>),
    /// Polymorphic equality (operands id-sorted).
    Eq(TermId, TermId),
    /// Polymorphic if-then-else on a boolean condition.
    Ite {
        /// Condition.
        cond: TermId,
        /// Value when true.
        then_t: TermId,
        /// Value when false.
        else_t: TermId,
    },
    /// Binary bit-vector operation.
    Bv(BvOp, TermId, TermId),
    /// Bit-vector comparison predicate.
    Pred(BvPred, TermId, TermId),
}

/// A concrete value, the result of [`TermPool::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A bit vector (width implied by the term's sort).
    Bv(u64),
}

impl Value {
    /// Extracts the boolean, panicking on sort confusion.
    ///
    /// # Panics
    ///
    /// Panics if the value is a bit vector.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Bv(_) => panic!("expected Bool value"),
        }
    }

    /// Extracts the bit-vector payload, panicking on sort confusion.
    ///
    /// # Panics
    ///
    /// Panics if the value is a boolean.
    pub fn as_bv(self) -> u64 {
        match self {
            Value::Bv(v) => v,
            Value::Bool(_) => panic!("expected Bv value"),
        }
    }
}

#[derive(Debug, Clone)]
struct VarInfo {
    name: String,
    sort: Sort,
}

/// Visited marks of the `&self` DAG walks ([`TermPool::visit_dag`]): one
/// generation stamp per node, so starting a walk bumps a counter instead of
/// allocating and clearing a set.
#[derive(Debug, Default)]
struct Marks {
    stamp: Vec<u32>,
    generation: u32,
    stack: Vec<TermId>,
}

/// [`Marks`] behind a `Cell`: a walk takes them out and puts them back,
/// so walks need only `&self`. A cloned pool starts with fresh marks.
#[derive(Default)]
struct MarksCell(Cell<Marks>);

impl Clone for MarksCell {
    fn clone(&self) -> Self {
        MarksCell::default()
    }
}

impl fmt::Debug for MarksCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MarksCell")
    }
}

/// The children of one node (a term's, or an e-node's), in a fixed
/// order, without allocating.
#[derive(Debug, Clone)]
pub enum Children<'a, T> {
    /// The operands of an `And`/`Or`.
    Nary(std::slice::Iter<'a, T>),
    /// Up to three fixed operands.
    Fixed(std::iter::Take<std::array::IntoIter<T, 3>>),
}

impl<T: Copy> Children<'_, T> {
    /// The first `n` of `ids` (`n <= 3`).
    pub(crate) fn fixed(ids: [T; 3], n: usize) -> Self {
        Children::Fixed(ids.into_iter().take(n))
    }
}

impl<T: Copy> Iterator for Children<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            Children::Nary(it) => it.next().copied(),
            Children::Fixed(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Children::Nary(it) => it.size_hint(),
            Children::Fixed(it) => it.size_hint(),
        }
    }
}

impl<T: Copy> DoubleEndedIterator for Children<'_, T> {
    fn next_back(&mut self) -> Option<T> {
        match self {
            Children::Nary(it) => it.next_back().copied(),
            Children::Fixed(it) => it.next_back(),
        }
    }
}

impl<T: Copy> ExactSizeIterator for Children<'_, T> {}

/// The hash-consing arena for terms.
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    kinds: Vec<TermKind>,
    sorts: Vec<Sort>,
    consing: FxHashMap<TermKind, TermId>,
    vars: Vec<VarInfo>,
    var_by_name: FxHashMap<String, VarIdx>,
    marks: MarksCell,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct term nodes allocated so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the pool holds no terms.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of variables declared so far.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The node of a term.
    pub fn kind(&self, t: TermId) -> &TermKind {
        &self.kinds[t.index()]
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.index()]
    }

    /// A variable's declared name.
    pub fn var_name(&self, v: VarIdx) -> &str {
        &self.vars[v.index()].name
    }

    /// A variable's sort.
    pub fn var_sort(&self, v: VarIdx) -> Sort {
        self.vars[v.index()].sort
    }

    fn intern(&mut self, kind: TermKind, sort: Sort) -> TermId {
        if let Some(&t) = self.consing.get(&kind) {
            return t;
        }
        let t = TermId(self.kinds.len() as u32);
        self.kinds.push(kind.clone());
        self.sorts.push(sort);
        self.consing.insert(kind, t);
        t
    }

    /// The `true` constant.
    pub fn tt(&mut self) -> TermId {
        self.intern(TermKind::BoolConst(true), Sort::Bool)
    }

    /// The `false` constant.
    pub fn ff(&mut self) -> TermId {
        self.intern(TermKind::BoolConst(false), Sort::Bool)
    }

    /// A boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        if b {
            self.tt()
        } else {
            self.ff()
        }
    }

    /// A bit-vector constant, masked to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "unsupported width {width}");
        let value = value & mask(width);
        self.intern(TermKind::BvConst { width, value }, Sort::Bv(width))
    }

    /// Declares (or retrieves) the variable `name` of sort `sort`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already declared with a different sort.
    pub fn var(&mut self, name: &str, sort: Sort) -> TermId {
        if let Some(&v) = self.var_by_name.get(name) {
            assert_eq!(
                self.vars[v.index()].sort,
                sort,
                "variable `{name}` redeclared"
            );
            return self.intern(TermKind::Var(v), sort);
        }
        let v = VarIdx(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_owned(),
            sort,
        });
        self.var_by_name.insert(name.to_owned(), v);
        self.intern(TermKind::Var(v), sort)
    }

    /// The term of an already declared variable.
    pub(crate) fn var_term(&mut self, v: VarIdx) -> TermId {
        let sort = self.var_sort(v);
        self.intern(TermKind::Var(v), sort)
    }

    /// Declares a fresh variable with a unique generated name.
    pub fn fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        let name = format!("{prefix}!{}", self.vars.len());
        debug_assert!(!self.var_by_name.contains_key(&name));
        self.var(&name, sort)
    }

    /// Returns the constant boolean value of `t` if it is one.
    pub fn as_bool_const(&self, t: TermId) -> Option<bool> {
        match self.kind(t) {
            TermKind::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the constant bit-vector value of `t` if it is one.
    pub fn as_bv_const(&self, t: TermId) -> Option<u64> {
        match self.kind(t) {
            TermKind::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The bit width of a BV-sorted term.
    ///
    /// # Panics
    ///
    /// Panics if `t` is boolean.
    pub fn width(&self, t: TermId) -> u32 {
        match self.sort(t) {
            Sort::Bv(w) => w,
            Sort::Bool => panic!("expected a bit-vector term"),
        }
    }

    /// Boolean negation with involution and constant folding.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not boolean.
    pub fn not(&mut self, t: TermId) -> TermId {
        assert_eq!(self.sort(t), Sort::Bool, "not: operand must be Bool");
        match self.kind(t) {
            TermKind::BoolConst(b) => {
                let b = !*b;
                self.bool_const(b)
            }
            TermKind::Not(inner) => *inner,
            _ => self.intern(TermKind::Not(t), Sort::Bool),
        }
    }

    /// N-ary conjunction: flattens, folds constants, deduplicates, detects
    /// `x ∧ ¬x`, and normalizes argument order.
    ///
    /// # Panics
    ///
    /// Panics if any operand is not boolean.
    pub fn and(&mut self, ts: &[TermId]) -> TermId {
        let mut flat = Vec::with_capacity(ts.len());
        for &t in ts {
            assert_eq!(self.sort(t), Sort::Bool, "and: operand must be Bool");
            match self.kind(t) {
                TermKind::BoolConst(true) => {}
                TermKind::BoolConst(false) => return self.ff(),
                TermKind::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // x ∧ ¬x → false
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.ff();
                }
            }
        }
        match flat.len() {
            0 => self.tt(),
            1 => flat[0],
            _ => self.intern(TermKind::And(flat), Sort::Bool),
        }
    }

    /// Binary conjunction convenience.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(&[a, b])
    }

    /// N-ary disjunction, dual to [`TermPool::and`].
    ///
    /// # Panics
    ///
    /// Panics if any operand is not boolean.
    pub fn or(&mut self, ts: &[TermId]) -> TermId {
        let mut flat = Vec::with_capacity(ts.len());
        for &t in ts {
            assert_eq!(self.sort(t), Sort::Bool, "or: operand must be Bool");
            match self.kind(t) {
                TermKind::BoolConst(false) => {}
                TermKind::BoolConst(true) => return self.tt(),
                TermKind::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.tt();
                }
            }
        }
        match flat.len() {
            0 => self.ff(),
            1 => flat[0],
            _ => self.intern(TermKind::Or(flat), Sort::Bool),
        }
    }

    /// Binary disjunction convenience.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(&[a, b])
    }

    /// Implication `a → b`, encoded as `¬a ∨ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// Polymorphic equality with folding and order normalization.
    ///
    /// # Panics
    ///
    /// Panics if the operands' sorts differ.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "eq: sort mismatch");
        if a == b {
            return self.tt();
        }
        match (self.kind(a).clone(), self.kind(b).clone()) {
            (TermKind::BoolConst(x), TermKind::BoolConst(y)) => return self.bool_const(x == y),
            (TermKind::BvConst { value: x, .. }, TermKind::BvConst { value: y, .. }) => {
                return self.bool_const(x == y)
            }
            // eq(x, true) → x; eq(x, false) → ¬x
            (TermKind::BoolConst(true), _) => return b,
            (_, TermKind::BoolConst(true)) => return a,
            (TermKind::BoolConst(false), _) => return self.not(b),
            (_, TermKind::BoolConst(false)) => return self.not(a),
            // eq(ite(c, k1, k2), k) with constant arms: select on c. This
            // unblocks unconstrained propagation through the 0/1-encoded
            // predicates of the IR translation.
            (
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                },
                TermKind::BvConst { value: k, .. },
            )
            | (
                TermKind::BvConst { value: k, .. },
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                },
            ) => {
                if let (Some(k1), Some(k2)) = (self.as_bv_const(then_t), self.as_bv_const(else_t)) {
                    if k1 != k2 {
                        if k == k1 {
                            return cond;
                        }
                        if k == k2 {
                            return self.not(cond);
                        }
                        return self.ff();
                    }
                }
            }
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermKind::Eq(a, b), Sort::Bool)
    }

    /// Disequality.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Polymorphic if-then-else.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not boolean or the branches' sorts differ.
    pub fn ite(&mut self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        assert_eq!(self.sort(cond), Sort::Bool, "ite: condition must be Bool");
        assert_eq!(
            self.sort(then_t),
            self.sort(else_t),
            "ite: branch sort mismatch"
        );
        if then_t == else_t {
            return then_t;
        }
        match self.kind(cond) {
            TermKind::BoolConst(true) => return then_t,
            TermKind::BoolConst(false) => return else_t,
            TermKind::Not(inner) => {
                let inner = *inner;
                return self.ite(inner, else_t, then_t);
            }
            _ => {}
        }
        if self.sort(then_t) == Sort::Bool {
            // Boolean ite: fold into and/or for simpler downstream handling.
            let nt = self.not(cond);
            let l = self.and2(cond, then_t);
            let r = self.and2(nt, else_t);
            return self.or2(l, r);
        }
        let sort = self.sort(then_t);
        self.intern(
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            },
            sort,
        )
    }

    /// Binary bit-vector operation with constant folding, unit/zero laws
    /// and commutative normalization.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not bit vectors of the same width.
    pub fn bv(&mut self, op: BvOp, a: TermId, b: TermId) -> TermId {
        let (Sort::Bv(wa), Sort::Bv(wb)) = (self.sort(a), self.sort(b)) else {
            panic!("bv {op:?}: operands must be bit vectors");
        };
        assert_eq!(wa, wb, "bv {op:?}: width mismatch");
        let w = wa;
        let ca = self.as_bv_const(a);
        let cb = self.as_bv_const(b);
        if let (Some(x), Some(y)) = (ca, cb) {
            return self.bv_const(op.eval(x, y, w), w);
        }
        // Unit and absorbing elements.
        match op {
            BvOp::Add | BvOp::Or | BvOp::Xor => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
            BvOp::Sub | BvOp::Shl | BvOp::Lshr | BvOp::Ashr => {
                if cb == Some(0) {
                    return a;
                }
            }
            BvOp::Mul => {
                if ca == Some(0) || cb == Some(0) {
                    return self.bv_const(0, w);
                }
                if ca == Some(1) {
                    return b;
                }
                if cb == Some(1) {
                    return a;
                }
            }
            BvOp::And => {
                if ca == Some(0) || cb == Some(0) {
                    return self.bv_const(0, w);
                }
                if ca == Some(mask(w)) {
                    return b;
                }
                if cb == Some(mask(w)) {
                    return a;
                }
            }
            BvOp::Udiv => {
                if cb == Some(1) {
                    return a;
                }
                if cb == Some(0) {
                    return self.bv_const(mask(w), w); // x / 0 = all-ones
                }
            }
            BvOp::Urem => {
                if cb == Some(1) {
                    return self.bv_const(0, w);
                }
                if cb == Some(0) {
                    return a; // x % 0 = x
                }
            }
        }
        // Shifts by a constant amount >= width collapse.
        if let Some(k) = cb {
            if k >= w as u64 {
                match op {
                    BvOp::Shl | BvOp::Lshr => return self.bv_const(0, w),
                    BvOp::Ashr => {
                        // Sign replication == shifting by width - 1.
                        let max_sh = self.bv_const((w - 1) as u64, w);
                        return self.bv(BvOp::Ashr, a, max_sh);
                    }
                    _ => {}
                }
            }
        }
        // x - x = 0, x ^ x = 0, x & x = x, x | x = x
        if a == b {
            match op {
                BvOp::Sub | BvOp::Xor => return self.bv_const(0, w),
                BvOp::And | BvOp::Or => return a,
                _ => {}
            }
        }
        let (a, b) = if op.commutative() && b < a {
            (b, a)
        } else {
            (a, b)
        };
        self.intern(TermKind::Bv(op, a, b), Sort::Bv(w))
    }

    /// Bit-vector comparison with constant folding and reflexivity laws.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not bit vectors of the same width.
    pub fn pred(&mut self, p: BvPred, a: TermId, b: TermId) -> TermId {
        let (Sort::Bv(wa), Sort::Bv(wb)) = (self.sort(a), self.sort(b)) else {
            panic!("pred {p:?}: operands must be bit vectors");
        };
        assert_eq!(wa, wb, "pred {p:?}: width mismatch");
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bool_const(p.eval(x, y, wa));
        }
        if a == b {
            return self.bool_const(matches!(p, BvPred::Ule | BvPred::Sle));
        }
        self.intern(TermKind::Pred(p, a, b), Sort::Bool)
    }

    /// Evaluates `t` under an assignment of values to variables. Variables
    /// missing from `env` default to 0/false.
    pub fn eval<S: BuildHasher>(&self, t: TermId, env: &HashMap<VarIdx, u64, S>) -> Value {
        let mut memo: FxHashMap<TermId, Value> = FxHashMap::default();
        self.eval_memo(t, env, &mut memo)
    }

    fn eval_memo<S: BuildHasher>(
        &self,
        t: TermId,
        env: &HashMap<VarIdx, u64, S>,
        memo: &mut FxHashMap<TermId, Value>,
    ) -> Value {
        if let Some(&v) = memo.get(&t) {
            return v;
        }
        let v = match self.kind(t) {
            TermKind::BoolConst(b) => Value::Bool(*b),
            TermKind::BvConst { value, .. } => Value::Bv(*value),
            TermKind::Var(v) => {
                let raw = env.get(v).copied().unwrap_or(0);
                match self.var_sort(*v) {
                    Sort::Bool => Value::Bool(raw != 0),
                    Sort::Bv(w) => Value::Bv(raw & mask(w)),
                }
            }
            TermKind::Not(x) => Value::Bool(!self.eval_memo(*x, env, memo).as_bool()),
            TermKind::And(xs) => {
                Value::Bool(xs.iter().all(|&x| self.eval_memo(x, env, memo).as_bool()))
            }
            TermKind::Or(xs) => {
                Value::Bool(xs.iter().any(|&x| self.eval_memo(x, env, memo).as_bool()))
            }
            TermKind::Eq(a, b) => {
                let (a, b) = (*a, *b);
                let va = self.eval_memo(a, env, memo);
                let vb = self.eval_memo(b, env, memo);
                Value::Bool(va == vb)
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                let (c, tt, ee) = (*cond, *then_t, *else_t);
                if self.eval_memo(c, env, memo).as_bool() {
                    self.eval_memo(tt, env, memo)
                } else {
                    self.eval_memo(ee, env, memo)
                }
            }
            TermKind::Bv(op, a, b) => {
                let (op, a, b) = (*op, *a, *b);
                let w = self.width(t);
                let va = self.eval_memo(a, env, memo).as_bv();
                let vb = self.eval_memo(b, env, memo).as_bv();
                Value::Bv(op.eval(va, vb, w))
            }
            TermKind::Pred(p, a, b) => {
                let (p, a, b) = (*p, *a, *b);
                let w = self.width(a);
                let va = self.eval_memo(a, env, memo).as_bv();
                let vb = self.eval_memo(b, env, memo).as_bv();
                Value::Bool(p.eval(va, vb, w))
            }
        };
        memo.insert(t, v);
        v
    }

    /// The children of a term, in a fixed order.
    pub fn children(&self, t: TermId) -> Children<'_, TermId> {
        let fixed = Children::fixed;
        match *self.kind(t) {
            TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var(_) => {
                fixed([t; 3], 0)
            }
            TermKind::Not(x) => fixed([x; 3], 1),
            TermKind::And(ref xs) | TermKind::Or(ref xs) => Children::Nary(xs.iter()),
            TermKind::Eq(a, b) | TermKind::Bv(_, a, b) | TermKind::Pred(_, a, b) => {
                fixed([a, b, b], 2)
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => fixed([cond, then_t, else_t], 3),
        }
    }

    /// Calls `visit` once on every distinct node reachable from `t`
    /// (depth-first, parents before children).
    pub(crate) fn visit_dag(&self, t: TermId, mut visit: impl FnMut(TermId)) {
        let mut m = self.marks.0.take();
        m.generation = m.generation.wrapping_add(1);
        if m.generation == 0 {
            m.stamp.fill(0);
            m.generation = 1;
        }
        if m.stamp.len() < self.kinds.len() {
            m.stamp.resize(self.kinds.len(), 0);
        }
        m.stack.clear();
        m.stack.push(t);
        while let Some(x) = m.stack.pop() {
            let s = &mut m.stamp[x.index()];
            if *s == m.generation {
                continue;
            }
            *s = m.generation;
            visit(x);
            m.stack.extend(self.children(x));
        }
        self.marks.0.set(m);
    }

    /// Number of distinct nodes reachable from `t` (shared sub-DAG size).
    pub fn dag_size(&self, t: TermId) -> usize {
        let mut n = 0;
        self.visit_dag(t, |_| n += 1);
        n
    }

    /// Size of the fully expanded syntax tree of `t` — the "condition size"
    /// a non-sharing representation (the conventional design's cloned
    /// formulas) would pay. Saturates at `u64::MAX`.
    pub fn tree_size(&self, t: TermId) -> u64 {
        let mut memo: FxHashMap<TermId, u64> = FxHashMap::default();
        self.tree_size_memo(t, &mut memo)
    }

    fn tree_size_memo(&self, t: TermId, memo: &mut FxHashMap<TermId, u64>) -> u64 {
        if let Some(&s) = memo.get(&t) {
            return s;
        }
        let mut total: u64 = 1;
        for c in self.children(t) {
            total = total.saturating_add(self.tree_size_memo(c, memo));
        }
        memo.insert(t, total);
        total
    }

    /// Free variables of `t` (sorted, deduplicated: each variable is one
    /// hash-consed node, visited once).
    pub fn free_vars(&self, t: TermId) -> Vec<VarIdx> {
        let mut out = Vec::new();
        self.visit_dag(t, |x| {
            if let TermKind::Var(v) = self.kinds[x.index()] {
                out.push(v);
            }
        });
        out.sort_unstable();
        out
    }

    /// Rebuilds `t` from its children mapped through `f`, re-running the
    /// simplifying constructor of `t`'s node. Leaves are returned as is.
    /// This is the one rebuild step every bottom-up rewrite shares.
    pub(crate) fn map_children(
        &mut self,
        t: TermId,
        mut f: impl FnMut(&mut TermPool, TermId) -> TermId,
    ) -> TermId {
        match *self.kind(t) {
            TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var(_) => t,
            TermKind::Not(x) => {
                let x = f(self, x);
                self.not(x)
            }
            TermKind::And(ref xs) | TermKind::Or(ref xs) => {
                let n = xs.len();
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let (TermKind::And(xs) | TermKind::Or(xs)) = self.kind(t) else {
                        unreachable!("n-ary node")
                    };
                    let x = xs[i];
                    out.push(f(self, x));
                }
                if matches!(self.kind(t), TermKind::And(_)) {
                    self.and(&out)
                } else {
                    self.or(&out)
                }
            }
            TermKind::Eq(a, b) => {
                let a = f(self, a);
                let b = f(self, b);
                self.eq(a, b)
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                let c = f(self, cond);
                let tt = f(self, then_t);
                let ee = f(self, else_t);
                self.ite(c, tt, ee)
            }
            TermKind::Bv(op, a, b) => {
                let a = f(self, a);
                let b = f(self, b);
                self.bv(op, a, b)
            }
            TermKind::Pred(p, a, b) => {
                let a = f(self, a);
                let b = f(self, b);
                self.pred(p, a, b)
            }
        }
    }

    /// Rebuilds `t` with variables substituted per `map` (variables absent
    /// from the map are kept). Simplifying constructors re-run, so the
    /// result may be smaller than the input.
    pub fn substitute<S: BuildHasher>(
        &mut self,
        t: TermId,
        map: &HashMap<VarIdx, TermId, S>,
    ) -> TermId {
        let mut memo: FxHashMap<TermId, TermId> = FxHashMap::default();
        self.substitute_memo(t, map, false, &mut memo)
    }

    /// Like [`TermPool::substitute`], but a mapped variable is replaced by
    /// its right-hand side *with the map applied to it as well*, so chains
    /// `x ↦ f(y), y ↦ g(z)` resolve in one pass to `f(g(z))`. Every
    /// right-hand side is rewritten once, shared through the memo.
    ///
    /// The map's dependency graph (`x → y` when `y` is free in `map[x]`)
    /// must be acyclic; callers establish this with an occurs check.
    pub(crate) fn substitute_acyclic<S: BuildHasher>(
        &mut self,
        t: TermId,
        map: &HashMap<VarIdx, TermId, S>,
    ) -> TermId {
        let mut memo: FxHashMap<TermId, TermId> = FxHashMap::default();
        self.substitute_memo(t, map, true, &mut memo)
    }

    fn substitute_memo<S: BuildHasher>(
        &mut self,
        t: TermId,
        map: &HashMap<VarIdx, TermId, S>,
        resolve: bool,
        memo: &mut FxHashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = match *self.kind(t) {
            TermKind::Var(v) => match map.get(&v) {
                Some(&rhs) if resolve => self.substitute_memo(rhs, map, resolve, memo),
                Some(&rhs) => rhs,
                None => t,
            },
            _ => self.map_children(t, |pool, c| pool.substitute_memo(c, map, resolve, memo)),
        };
        memo.insert(t, r);
        r
    }

    /// Renders a term as an S-expression (for diagnostics and tests).
    pub fn display(&self, t: TermId) -> String {
        match self.kind(t) {
            TermKind::BoolConst(b) => b.to_string(),
            TermKind::BvConst { value, width } => format!("#x{value:x}:{width}"),
            TermKind::Var(v) => self.var_name(*v).to_owned(),
            TermKind::Not(x) => format!("(not {})", self.display(*x)),
            TermKind::And(xs) => {
                let parts: Vec<String> = xs.iter().map(|&x| self.display(x)).collect();
                format!("(and {})", parts.join(" "))
            }
            TermKind::Or(xs) => {
                let parts: Vec<String> = xs.iter().map(|&x| self.display(x)).collect();
                format!("(or {})", parts.join(" "))
            }
            TermKind::Eq(a, b) => format!("(= {} {})", self.display(*a), self.display(*b)),
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => format!(
                "(ite {} {} {})",
                self.display(*cond),
                self.display(*then_t),
                self.display(*else_t)
            ),
            TermKind::Bv(op, a, b) => {
                format!("({op:?} {} {})", self.display(*a), self.display(*b))
            }
            TermKind::Pred(p, a, b) => {
                format!("({p:?} {} {})", self.display(*a), self.display(*b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let a = p.bv(BvOp::Add, x, y);
        let b = p.bv(BvOp::Add, y, x); // commutative normalization
        assert_eq!(a, b);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.bv_const(7, 32);
        let b = p.bv_const(5, 32);
        let s = p.bv(BvOp::Add, a, b);
        assert_eq!(p.as_bv_const(s), Some(12));
        let lt = p.pred(BvPred::Ult, b, a);
        assert_eq!(p.as_bool_const(lt), Some(true));
    }

    #[test]
    fn unit_laws() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let zero = p.bv_const(0, 32);
        let one = p.bv_const(1, 32);
        assert_eq!(p.bv(BvOp::Add, x, zero), x);
        assert_eq!(p.bv(BvOp::Mul, x, one), x);
        assert_eq!(p.bv(BvOp::Mul, x, zero), zero);
        assert_eq!(p.bv(BvOp::Sub, x, x), zero);
        assert_eq!(p.bv(BvOp::Xor, x, x), zero);
    }

    #[test]
    fn and_or_normalization() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let b = p.var("b", Sort::Bool);
        let t = p.tt();
        let f = p.ff();
        assert_eq!(p.and(&[a, t, a]), a);
        assert_eq!(p.and(&[a, f]), f);
        assert_eq!(p.or(&[a, f, a]), a);
        assert_eq!(p.or(&[a, t]), t);
        let na = p.not(a);
        assert_eq!(p.and(&[a, b, na]), f);
        assert_eq!(p.or(&[a, b, na]), t);
        // Flattening: and(a, and(a, b)) == and(a, b)
        let ab = p.and2(a, b);
        assert_eq!(p.and2(a, ab), ab);
    }

    #[test]
    fn not_involution() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let na = p.not(a);
        assert_eq!(p.not(na), a);
    }

    #[test]
    fn eq_bool_shortcuts() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let t = p.tt();
        let f = p.ff();
        assert_eq!(p.eq(a, t), a);
        let e = p.eq(a, f);
        assert_eq!(e, p.not(a));
        assert_eq!(p.eq(a, a), p.tt());
    }

    #[test]
    fn ite_simplifications() {
        let mut p = TermPool::new();
        let c = p.var("c", Sort::Bool);
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let t = p.tt();
        assert_eq!(p.ite(t, x, y), x);
        assert_eq!(p.ite(c, x, x), x);
        let nc = p.not(c);
        assert_eq!(p.ite(nc, x, y), p.ite(c, y, x));
    }

    #[test]
    fn eval_agrees_with_ops() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let TermKind::Var(vx) = *p.kind(x) else {
            unreachable!()
        };
        let TermKind::Var(vy) = *p.kind(y) else {
            unreachable!()
        };
        let sum = p.bv(BvOp::Add, x, y);
        let cmp = p.pred(BvPred::Slt, sum, x);
        let mut env = HashMap::new();
        env.insert(vx, 0xffff_ffff); // -1 signed
        env.insert(vy, 5u64);
        assert_eq!(p.eval(sum, &env), Value::Bv(4));
        assert_eq!(p.eval(cmp, &env), Value::Bool(false)); // 4 < -1 signed? no
    }

    #[test]
    fn substitution_resimplifies() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let TermKind::Var(vx) = *p.kind(x) else {
            unreachable!()
        };
        let sum = p.bv(BvOp::Add, x, y);
        let zero = p.bv_const(0, 32);
        let mut map = HashMap::new();
        map.insert(vx, zero);
        assert_eq!(p.substitute(sum, &map), y);
    }

    #[test]
    fn sizes_distinguish_dag_and_tree() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        // t = (x+x); u = t+t; DAG has 3 nodes, tree has 7.
        let t = p.bv(BvOp::Add, x, x);
        let u = p.bv(BvOp::Add, t, t);
        assert_eq!(p.dag_size(u), 3);
        assert_eq!(p.tree_size(u), 7);
    }

    #[test]
    fn free_vars_collects() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let c = p.bv_const(3, 8);
        let t1 = p.bv(BvOp::Mul, x, c);
        let t = p.bv(BvOp::Add, t1, y);
        assert_eq!(p.free_vars(t).len(), 2);
    }

    #[test]
    fn signed_helpers() {
        assert_eq!(to_signed(0xff, 8), -1);
        assert_eq!(to_signed(0x7f, 8), 127);
        assert_eq!(mask(8), 0xff);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn ashr_sign_extension() {
        assert_eq!(BvOp::Ashr.eval(0x80, 1, 8), 0xc0);
        assert_eq!(BvOp::Ashr.eval(0x80, 100, 8), 0xff);
        assert_eq!(BvOp::Ashr.eval(0x40, 100, 8), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(16));
        p.bv(BvOp::Add, x, y);
    }
}
