//! Batch compute kernels shared by the vectorized operators.
//!
//! An [`Operand`] is a cursor over one logical column: the physical
//! column representation plus the composed row mapping (selection
//! vector, fused-chain live set, or both). Kernels dispatch once on the
//! operand representations and then run one tight single-threaded loop
//! over the live rows — integer comparisons and arithmetic never box an
//! [`Item`], boolean predicates come straight off the bit-packed column,
//! and the generic fallback reproduces the scalar per-row path exactly
//! (same values, same first error) so fused and un-fused execution stay
//! byte-identical.

use crate::bits::BitVec;
use crate::column::{Column, ColumnBuilder};
use crate::eval::EvalError;
use crate::funs;
use crate::item::Item;
use crate::table::ColView;
use exrquy_algebra::FunKind;
use exrquy_diag::ErrorCode;
use exrquy_xml::{FragArena, NodeId};
use std::cmp::Ordering;

/// Logical-row → physical-row mapping for one operand. Fused chains
/// read base columns through the chain's live set *and* the column's
/// own selection vector; the two compose here instead of per access.
#[derive(Clone, Copy)]
pub(crate) enum Map<'a> {
    /// Dense: logical row `p` is physical row `p`.
    Id,
    /// One indirection (a selection vector or a live set).
    One(&'a [u32]),
    /// Two indirections: `second[first[p]]` (live set, then the
    /// column's own selection vector).
    Two(&'a [u32], &'a [u32]),
}

impl Map<'_> {
    #[inline]
    fn at(&self, p: usize) -> usize {
        match self {
            Map::Id => p,
            Map::One(m) => m[p] as usize,
            Map::Two(a, b) => b[a[p] as usize] as usize,
        }
    }
}

/// One kernel operand: a column representation behind a row mapping,
/// or a per-row constant.
pub(crate) enum Operand<'a> {
    Int(&'a [i64], Map<'a>),
    Bits(&'a BitVec, Map<'a>),
    Nodes(&'a [NodeId], Map<'a>),
    Items(&'a [Item], Map<'a>),
    Const(&'a Item),
}

impl<'a> Operand<'a> {
    /// Operand over a table column view, optionally through a fused
    /// chain's live set (`alive` maps chain row → view row).
    pub(crate) fn from_view(v: &'a ColView, alive: Option<&'a [u32]>) -> Self {
        let map = match (alive, v.sel()) {
            (None, None) => Map::Id,
            (Some(a), None) => Map::One(a),
            (None, Some(s)) => Map::One(s),
            (Some(a), Some(s)) => Map::Two(a, s),
        };
        Self::from_parts(v.data(), map)
    }

    /// Operand over a dense column already aligned to the kernel's rows
    /// (a fused-chain register).
    pub(crate) fn from_column(c: &'a Column) -> Self {
        Self::from_parts(c, Map::Id)
    }

    fn from_parts(c: &'a Column, map: Map<'a>) -> Self {
        match c {
            Column::Int(v) => Operand::Int(v, map),
            Column::Bool(v) => Operand::Bits(v, map),
            Column::Node(v) => Operand::Nodes(v, map),
            Column::Item(v) => Operand::Items(v, map),
        }
    }

    /// Boxed value at logical row `p` (the generic-fallback accessor).
    #[inline]
    pub(crate) fn item(&self, p: usize) -> Item {
        match self {
            Operand::Int(v, m) => Item::Int(v[m.at(p)]),
            Operand::Bits(v, m) => Item::Bool(v.get(m.at(p))),
            Operand::Nodes(v, m) => Item::Node(v[m.at(p)]),
            Operand::Items(v, m) => v[m.at(p)].clone(),
            Operand::Const(it) => (*it).clone(),
        }
    }
}

/// Integer-valued operand source: a mapped slice or a constant.
#[derive(Clone, Copy)]
enum IntSrc<'a> {
    Slice(&'a [i64], Map<'a>),
    K(i64),
}

impl IntSrc<'_> {
    #[inline]
    fn at(&self, p: usize) -> i64 {
        match self {
            IntSrc::Slice(v, m) => v[m.at(p)],
            IntSrc::K(k) => *k,
        }
    }
}

fn int_src<'a>(o: &Operand<'a>) -> Option<IntSrc<'a>> {
    match o {
        Operand::Int(v, m) => Some(IntSrc::Slice(v, *m)),
        Operand::Const(Item::Int(k)) => Some(IntSrc::K(*k)),
        _ => None,
    }
}

/// Does `ord` satisfy the comparison `kind`? Mirrors
/// [`funs::compare_with`] exactly.
#[inline]
fn ord_hits(kind: FunKind, ord: Ordering) -> bool {
    match kind {
        FunKind::Eq => ord == Ordering::Equal,
        FunKind::Ne => ord != Ordering::Equal,
        FunKind::Lt => ord == Ordering::Less,
        FunKind::Le => ord != Ordering::Greater,
        FunKind::Gt => ord == Ordering::Greater,
        FunKind::Ge => ord != Ordering::Less,
        other => unreachable!("non-comparison kind {other:?}"),
    }
}

/// Comparison kernel over the first `live` rows. Integers compare
/// through `f64` exactly as [`funs::compare`] promotes them; everything
/// else goes through `compare_with` on borrowed items (no clones for
/// `Item` columns or constants).
fn compare_rows(kind: FunKind, a: &Operand<'_>, b: &Operand<'_>, live: usize) -> BitVec {
    if let (Some(ia), Some(ib)) = (int_src(a), int_src(b)) {
        return BitVec::from_iter_exact((0..live).map(|p| {
            (ia.at(p) as f64)
                .partial_cmp(&(ib.at(p) as f64))
                .is_some_and(|o| ord_hits(kind, o))
        }));
    }
    BitVec::from_iter_exact((0..live).map(|p| {
        let (ta, tb);
        let x: &Item = match a {
            Operand::Items(v, m) => &v[m.at(p)],
            Operand::Const(it) => it,
            o => {
                ta = o.item(p);
                &ta
            }
        };
        let y: &Item = match b {
            Operand::Items(v, m) => &v[m.at(p)],
            Operand::Const(it) => it,
            o => {
                tb = o.item(p);
                &tb
            }
        };
        funs::compare_with(kind, x, y)
    }))
}

/// Integer arithmetic kernel over the first `live` rows;
/// `Add`/`Sub`/`Mul` wrap and `Mod` raises `FOAR0001` on a zero divisor,
/// bit-for-bit the integer paths of [`funs::apply`].
fn arith_rows(
    arena: &FragArena,
    kind: FunKind,
    a: IntSrc<'_>,
    b: IntSrc<'_>,
    live: usize,
) -> Result<Vec<i64>, EvalError> {
    let mut out = Vec::with_capacity(live);
    for p in 0..live {
        let (x, y) = (a.at(p), b.at(p));
        out.push(match kind {
            FunKind::Add => x.wrapping_add(y),
            FunKind::Sub => x.wrapping_sub(y),
            FunKind::Mul => x.wrapping_mul(y),
            FunKind::Mod => {
                if y == 0 {
                    // Route the error through `apply` so code and
                    // message match the scalar engine exactly.
                    funs::apply(arena, kind, &[Item::Int(x), Item::Int(y)])?;
                    unreachable!("integer mod by zero must error");
                }
                x % y
            }
            other => unreachable!("non-integer arithmetic kind {other:?}"),
        });
    }
    Ok(out)
}

/// Evaluate `kind` over `ops` for `live` rows.
pub(crate) fn fun_batch(
    arena: &FragArena,
    kind: FunKind,
    ops: &[Operand<'_>],
    live: usize,
) -> Result<Column, EvalError> {
    use FunKind::*;
    if matches!(kind, Eq | Ne | Lt | Le | Gt | Ge) && ops.len() == 2 {
        return Ok(Column::Bool(compare_rows(kind, &ops[0], &ops[1], live)));
    }
    if matches!(kind, Add | Sub | Mul | Mod) && ops.len() == 2 {
        if let (Some(a), Some(b)) = (int_src(&ops[0]), int_src(&ops[1])) {
            return Ok(Column::Int(arith_rows(arena, kind, a, b, live)?));
        }
    }
    // Generic fallback: per-row `funs::apply`, densified by the
    // adaptive builder. Same row order, same first error.
    let mut out = ColumnBuilder::new();
    let mut buf: Vec<Item> = Vec::with_capacity(ops.len());
    for p in 0..live {
        buf.clear();
        buf.extend(ops.iter().map(|o| o.item(p)));
        out.push(funs::apply(arena, kind, &buf)?);
    }
    Ok(out.finish())
}

/// σ kernel: logical rows of `op` (length `live`) whose value is
/// `true`, erroring on the first non-boolean in row order exactly like
/// the scalar per-row scan.
pub(crate) fn select_batch(op: &Operand<'_>, live: usize) -> Result<Vec<u32>, EvalError> {
    let mut keep: Vec<u32> = Vec::new();
    match op {
        // Bit-packed predicate: word-at-a-time when dense (an unmapped
        // operand spans its whole column), bit probes through the
        // mapping otherwise — never boxes.
        Operand::Bits(v, Map::Id) => {
            debug_assert_eq!(v.len(), live);
            v.extend_ones(&mut keep)
        }
        Operand::Bits(v, m) => keep.extend((0..live as u32).filter(|&p| v.get(m.at(p as usize)))),
        o => {
            for p in 0..live {
                let t;
                let it: &Item = match o {
                    Operand::Items(v, m) => &v[m.at(p)],
                    Operand::Const(c) => c,
                    o => {
                        t = o.item(p);
                        &t
                    }
                };
                match it {
                    Item::Bool(true) => keep.push(p as u32),
                    Item::Bool(false) => {}
                    other => {
                        return Err(EvalError::new(
                            ErrorCode::XPTY0004,
                            format!("σ on non-boolean value {other:?}"),
                        ))
                    }
                }
            }
        }
    }
    Ok(keep)
}
