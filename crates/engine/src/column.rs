//! Columns: typed value vectors, `Arc`-shared between tables (and, under
//! intra-query parallel execution, between worker threads).
//!
//! Four physical representations cover the plans' needs: dense `i64`
//! columns (`iter`, `pos`, `bind`, row ids — the hot sort/join keys),
//! dense bit-packed boolean columns ([`BitVec`] — predicate results,
//! which used to box one [`Item::Bool`] per row), dense [`NodeId`]
//! columns (what `⬡`, `doc`, `collection` and the constructors emit:
//! 8 bytes a row, `Copy`, ordered by document order), and generic
//! [`Item`] columns (24 bytes a row) for everything else.
//!
//! A node column is to the order-bearing kernels the integer column it
//! is: [`node_key`] packs an id into an `i64` that sorts as the id does,
//! so `%`, `δ`, `\` and `⋈` run their integer paths over it. Everything
//! else reads it through [`Column::get`] as [`Item::Node`]. The scalar
//! reference arm never produces the representation (it keeps nodes boxed
//! in `Item` columns), which is what lets the vectorization differential
//! check it.
//!
//! Integer access goes through a typed error ([`ColumnError`], surfaced
//! as `EXRQ0010`): an `iter`/`pos`-class column holding a non-integer is
//! a planner bug, and it must degrade to an error response — not a
//! panic that the serving layer has to contain with `catch_unwind`.

use crate::bits::BitVec;
use crate::item::Item;
use exrquy_xml::NodeId;
use std::sync::Arc;

/// Violation of an engine value-layer invariant (a plan bug, never user
/// error). Converted to an `EXRQ0010` [`EvalError`](crate::EvalError) at
/// the evaluator boundary.
#[derive(Debug, Clone)]
pub struct ColumnError(pub String);

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine invariant violated: {}", self.0)
    }
}

impl std::error::Error for ColumnError {}

/// A column of values.
///
/// Equality is *representational*: two columns are equal when they hold
/// the same values in the same representation. In particular a
/// [`Node`](Column::Node) column never equals an [`Item`](Column::Item)
/// column, even one boxing the same nodes — just as `Int` never equals
/// an `Item` column of integers. Compare through [`get`](Column::get)
/// for value equality across representations.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int(Vec<i64>),
    Bool(BitVec),
    Node(Vec<NodeId>),
    Item(Vec<Item>),
}

/// `node` as an integer that orders (and hashes, and compares equal)
/// exactly as the id does: `frag << 32 | pre`, biased so that the whole
/// `u32` fragment range stays in `i64` order. Pre ranks of one fragment
/// come out as dense integers, which is what the counting-sort `%` and
/// the direct-address join look for.
#[inline]
pub(crate) fn node_key(node: NodeId) -> i64 {
    ((u64::from(node.frag) << 32 | u64::from(node.pre)) ^ (1 << 63)) as i64
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Node(v) => v.len(),
            Column::Item(v) => v.len(),
        }
    }

    /// A column of node references: dense for the vectorized arm, boxed
    /// one [`Item::Node`] per row for the scalar reference arm (which
    /// keeps the layout every kernel is differentially checked against).
    pub fn from_nodes(nodes: Vec<NodeId>, vec: bool) -> Column {
        if vec {
            Column::Node(nodes)
        } else {
            Column::Item(nodes.into_iter().map(Item::Node).collect())
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `i` as an [`Item`].
    pub fn get(&self, i: usize) -> Item {
        match self {
            Column::Int(v) => Item::Int(v[i]),
            Column::Bool(v) => Item::Bool(v.get(i)),
            Column::Node(v) => Item::Node(v[i]),
            Column::Item(v) => v[i].clone(),
        }
    }

    /// Integer view at `i`; a non-integer value is an engine invariant
    /// violation (`iter`/`pos`-class columns are integral by plan
    /// construction) reported as a typed error.
    pub fn get_int(&self, i: usize) -> Result<i64, ColumnError> {
        match self {
            Column::Int(v) => Ok(v[i]),
            Column::Bool(_) => Err(ColumnError(
                "expected integer column value, found boolean".into(),
            )),
            Column::Node(v) => Err(ColumnError(format!(
                "expected integer column value, found node {}",
                v[i]
            ))),
            Column::Item(v) => match &v[i] {
                Item::Int(n) => Ok(*n),
                other => Err(ColumnError(format!(
                    "expected integer column value, found {other:?}"
                ))),
            },
        }
    }

    /// Materialize as a plain `i64` vector (for columns known integral).
    pub fn to_int_vec(&self) -> Result<Vec<i64>, ColumnError> {
        match self {
            Column::Int(v) => Ok(v.clone()),
            Column::Bool(_) => Err(ColumnError(
                "expected integer column, found boolean column".into(),
            )),
            Column::Node(_) => Err(ColumnError(
                "expected integer column, found node column".into(),
            )),
            Column::Item(v) => v
                .iter()
                .map(|it| match it {
                    Item::Int(n) => Ok(*n),
                    other => Err(ColumnError(format!(
                        "expected integer column value, found {other:?}"
                    ))),
                })
                .collect(),
        }
    }

    /// Gather `self[idx[i]]` into a new column.
    pub fn gather(&self, idx: &[usize]) -> Column {
        self.gather_by(idx.iter().copied())
    }

    /// Gather the rows `idx` yields, in that order — the body of
    /// [`gather`](Self::gather), also fed straight from a selection
    /// vector (no widened copy of the indices).
    pub(crate) fn gather_by(&self, idx: impl ExactSizeIterator<Item = usize>) -> Column {
        match self {
            Column::Int(v) => Column::Int(idx.map(|i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(BitVec::from_iter_exact(idx.map(|i| v.get(i)))),
            Column::Node(v) => Column::Node(idx.map(|i| v[i]).collect()),
            Column::Item(v) => Column::Item(idx.map(|i| v[i].clone()).collect()),
        }
    }

    /// Append `other`'s values (schema alignment is the table layer's
    /// job). Like representations stay dense; mixed representations fall
    /// back to an [`Item`] column without a per-value round trip through
    /// [`get`](Self::get) where a bulk copy exists.
    pub fn append(&self, other: &Column) -> Column {
        match (self, other) {
            (a, b) if b.is_empty() => a.clone(),
            (a, b) if a.is_empty() => b.clone(),
            (Column::Int(a), Column::Int(b)) => {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend_from_slice(a);
                v.extend_from_slice(b);
                Column::Int(v)
            }
            (Column::Bool(a), Column::Bool(b)) => {
                let mut v = BitVec::with_capacity(a.len() + b.len());
                for i in 0..a.len() {
                    v.push(a.get(i));
                }
                for i in 0..b.len() {
                    v.push(b.get(i));
                }
                Column::Bool(v)
            }
            (Column::Node(a), Column::Node(b)) => Column::Node([a.as_slice(), b].concat()),
            (Column::Item(a), Column::Item(b)) => {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend_from_slice(a);
                v.extend_from_slice(b);
                Column::Item(v)
            }
            (a, b) => {
                let mut v: Vec<Item> = Vec::with_capacity(a.len() + b.len());
                extend_items(&mut v, a);
                extend_items(&mut v, b);
                Column::Item(v)
            }
        }
    }

    /// N-ary append in one allocation. Empty parts are representation
    /// transparent (an empty shard must not demote the union); when all
    /// non-empty parts share a representation the result stays dense,
    /// otherwise everything funnels through the bulk [`Item`] walk — the
    /// same dense/fallback contract as [`append`](Self::append) without
    /// the O(n²) copying a pairwise fold over n shards would do.
    pub fn append_all(parts: &[&Column]) -> Column {
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let mut live = parts.iter().filter(|c| !c.is_empty());
        let Some(first) = live.next() else {
            return parts.first().map_or(Column::Int(Vec::new()), |c| match c {
                Column::Int(_) => Column::Int(Vec::new()),
                Column::Bool(_) => Column::Bool(BitVec::new()),
                Column::Node(_) => Column::Node(Vec::new()),
                Column::Item(_) => Column::Item(Vec::new()),
            });
        };
        let uniform = live.all(|c| std::mem::discriminant(*c) == std::mem::discriminant(*first));
        if uniform {
            match first {
                Column::Int(_) => {
                    let mut v = Vec::with_capacity(total);
                    for c in parts {
                        if let Column::Int(p) = c {
                            v.extend_from_slice(p);
                        }
                    }
                    Column::Int(v)
                }
                Column::Bool(_) => {
                    let mut v = BitVec::with_capacity(total);
                    for c in parts {
                        if let Column::Bool(p) = c {
                            for i in 0..p.len() {
                                v.push(p.get(i));
                            }
                        }
                    }
                    Column::Bool(v)
                }
                Column::Node(_) => {
                    let mut v = Vec::with_capacity(total);
                    for c in parts {
                        if let Column::Node(p) = c {
                            v.extend_from_slice(p);
                        }
                    }
                    Column::Node(v)
                }
                Column::Item(_) => {
                    let mut v = Vec::with_capacity(total);
                    for c in parts {
                        if let Column::Item(p) = c {
                            v.extend_from_slice(p);
                        }
                    }
                    Column::Item(v)
                }
            }
        } else {
            let mut v: Vec<Item> = Vec::with_capacity(total);
            for c in parts {
                extend_items(&mut v, c);
            }
            Column::Item(v)
        }
    }
}

/// Bulk-extend `out` with `c`'s values as items (no per-row `get` on the
/// representations that support a direct walk).
fn extend_items(out: &mut Vec<Item>, c: &Column) {
    match c {
        Column::Int(v) => out.extend(v.iter().map(|&n| Item::Int(n))),
        Column::Bool(v) => out.extend((0..v.len()).map(|i| Item::Bool(v.get(i)))),
        Column::Node(v) => out.extend(v.iter().map(|&n| Item::Node(n))),
        Column::Item(v) => out.extend_from_slice(v),
    }
}

/// Shared column handle.
pub type ColRef = Arc<Column>;

/// Adaptive column builder: starts dense (`Int` from integer items,
/// `Bool` from booleans) and falls back to a generic [`Item`] column on
/// the first value that does not fit. Kernels producing fresh columns
/// push through this so `iter`/`pos` arithmetic and predicate results
/// stay dense without per-kernel type analysis.
#[derive(Debug)]
pub enum ColumnBuilder {
    Empty,
    Int(Vec<i64>),
    Bool(BitVec),
    Item(Vec<Item>),
}

impl ColumnBuilder {
    /// An empty builder (representation decided by the first push).
    pub fn new() -> Self {
        ColumnBuilder::Empty
    }

    /// Append one value, degrading the representation if needed.
    pub fn push(&mut self, item: Item) {
        match (&mut *self, &item) {
            (ColumnBuilder::Empty, Item::Int(n)) => *self = ColumnBuilder::Int(vec![*n]),
            (ColumnBuilder::Empty, Item::Bool(b)) => {
                let mut v = BitVec::new();
                v.push(*b);
                *self = ColumnBuilder::Bool(v);
            }
            (ColumnBuilder::Empty, _) => *self = ColumnBuilder::Item(vec![item]),
            (ColumnBuilder::Int(v), Item::Int(n)) => v.push(*n),
            (ColumnBuilder::Bool(v), Item::Bool(b)) => v.push(*b),
            (ColumnBuilder::Item(v), _) => v.push(item),
            (_, _) => {
                let prev = std::mem::replace(self, ColumnBuilder::Empty);
                let mut v = Vec::with_capacity(prev.len() + 1);
                extend_items(&mut v, &prev.finish());
                v.push(item);
                *self = ColumnBuilder::Item(v);
            }
        }
    }

    /// Values pushed so far.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Empty => 0,
            ColumnBuilder::Int(v) => v.len(),
            ColumnBuilder::Bool(v) => v.len(),
            ColumnBuilder::Item(v) => v.len(),
        }
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish into a column (an untouched builder yields an empty `Item`
    /// column, matching [`Table::empty`](crate::Table::empty)).
    pub fn finish(self) -> Column {
        match self {
            ColumnBuilder::Empty => Column::Item(Vec::new()),
            ColumnBuilder::Int(v) => Column::Int(v),
            ColumnBuilder::Bool(v) => Column::Bool(v),
            ColumnBuilder::Item(v) => Column::Item(v),
        }
    }
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_and_append() {
        let c = Column::Int(vec![10, 20, 30]);
        assert_eq!(c.gather(&[2, 0]), Column::Int(vec![30, 10]));
        let d = Column::Item(vec![Item::str("x")]);
        let e = c.append(&d);
        assert_eq!(e.len(), 4);
        assert_eq!(e.get(0), Item::Int(10));
        assert_eq!(e.get(3), Item::str("x"));
    }

    #[test]
    fn append_keeps_like_representations_dense() {
        let a = Column::Int(vec![1, 2]);
        let b = Column::Int(vec![3]);
        assert_eq!(a.append(&b), Column::Int(vec![1, 2, 3]));
        let ba = Column::Bool(BitVec::from_iter_exact([true, false].into_iter()));
        let bb = Column::Bool(BitVec::from_iter_exact([true].into_iter()));
        let joined = ba.append(&bb);
        assert!(matches!(joined, Column::Bool(_)));
        assert_eq!(joined.get(2), Item::Bool(true));
        // Item×Item goes through a bulk slice copy, values intact.
        let ia = Column::Item(vec![Item::str("a"), Item::Int(1)]);
        let ib = Column::Item(vec![Item::str("b")]);
        let j = ia.append(&ib);
        assert_eq!(j.len(), 3);
        assert_eq!(j.get(2), Item::str("b"));
        // An empty side keeps the other side's representation.
        let empty = Column::Item(vec![]);
        assert_eq!(a.append(&empty), a);
        assert_eq!(empty.append(&a), a);
    }

    #[test]
    fn append_all_is_dense_and_skips_empty_parts() {
        // Uniform Int parts: one dense allocation, order preserved.
        let a = Column::Int(vec![1, 2]);
        let b = Column::Int(vec![3]);
        let c = Column::Int(vec![4, 5]);
        assert_eq!(
            Column::append_all(&[&a, &b, &c]),
            Column::Int(vec![1, 2, 3, 4, 5])
        );
        // An empty part — an empty shard of a ∪̂ — must not demote the
        // result representation, whatever variant the empty part carries.
        let empty_item = Column::Item(vec![]);
        assert_eq!(
            Column::append_all(&[&a, &empty_item, &b]),
            Column::Int(vec![1, 2, 3])
        );
        let empty_int = Column::Int(vec![]);
        let items = Column::Item(vec![Item::str("x")]);
        let j = Column::append_all(&[&empty_int, &items]);
        assert!(matches!(j, Column::Item(_)));
        assert_eq!(j.get(0), Item::str("x"));
        // Bools stay packed.
        let ba = Column::Bool(BitVec::from_iter_exact([true, false].into_iter()));
        let bb = Column::Bool(BitVec::from_iter_exact([true].into_iter()));
        let joined = Column::append_all(&[&ba, &bb]);
        assert!(matches!(joined, Column::Bool(_)));
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.get(2), Item::Bool(true));
        // Genuinely mixed non-empty parts fall back to boxed items.
        let mixed = Column::append_all(&[&a, &items]);
        assert!(matches!(mixed, Column::Item(_)));
        assert_eq!(mixed.len(), 3);
        assert_eq!(mixed.get(0), Item::Int(1));
        assert_eq!(mixed.get(2), Item::str("x"));
        // All-empty and no-part unions are empty.
        assert_eq!(Column::append_all(&[&empty_int, &empty_item]).len(), 0);
        assert_eq!(Column::append_all(&[]).len(), 0);
    }

    #[test]
    fn int_views() {
        let c = Column::Item(vec![Item::Int(5)]);
        assert_eq!(c.get_int(0).unwrap(), 5);
        assert_eq!(c.to_int_vec().unwrap(), vec![5]);
    }

    #[test]
    fn get_int_rejects_non_integers_with_typed_error() {
        let err = Column::Item(vec![Item::str("x")]).get_int(0).unwrap_err();
        assert!(err.to_string().contains("expected integer"), "{err}");
        let err = Column::Bool(BitVec::from_iter_exact([true].into_iter()))
            .to_int_vec()
            .unwrap_err();
        assert!(err.to_string().contains("invariant violated"), "{err}");
    }

    #[test]
    fn builder_adapts_representation() {
        let mut b = ColumnBuilder::new();
        b.push(Item::Int(1));
        b.push(Item::Int(2));
        assert!(matches!(b, ColumnBuilder::Int(_)));
        b.push(Item::str("x"));
        let c = b.finish();
        assert!(matches!(c, Column::Item(_)));
        assert_eq!(c.get(0), Item::Int(1));
        assert_eq!(c.get(2), Item::str("x"));

        let mut bb = ColumnBuilder::new();
        bb.push(Item::Bool(true));
        bb.push(Item::Bool(false));
        let c = bb.finish();
        assert!(matches!(c, Column::Bool(_)));
        assert_eq!(c.get(1), Item::Bool(false));
        assert!(matches!(ColumnBuilder::new().finish(), Column::Item(v) if v.is_empty()));
    }

    #[test]
    fn node_columns_stay_dense_and_box_only_when_mixed() {
        let n = |pre| NodeId::new(1, pre);
        let a = Column::Node(vec![n(4), n(2), n(9)]);
        assert_eq!(a.get(1), Item::Node(n(2)));
        assert_eq!(a.gather(&[2, 2, 0]), Column::Node(vec![n(9), n(9), n(4)]));
        let b = Column::Node(vec![n(1)]);
        assert_eq!(a.append(&b), Column::Node(vec![n(4), n(2), n(9), n(1)]));
        assert_eq!(
            Column::append_all(&[&b, &Column::Item(vec![]), &a]),
            Column::Node(vec![n(1), n(4), n(2), n(9)])
        );
        // A ∪̇ with atomics degrades to boxed items, values intact.
        let mixed = b.append(&Column::Int(vec![7]));
        assert_eq!(mixed, Column::Item(vec![Item::Node(n(1)), Item::Int(7)]));
        assert!(a.get_int(0).is_err() && a.to_int_vec().is_err());
        // The two node forms hold equal values but are not equal columns.
        let boxed = Column::from_nodes(vec![n(1)], false);
        assert_eq!(boxed, Column::Item(vec![Item::Node(n(1))]));
        assert_eq!(Column::from_nodes(vec![n(1)], true), b);
        assert_ne!(boxed, b);
        assert_eq!(boxed.get(0), b.get(0));
    }

    #[test]
    fn node_keys_order_as_node_ids() {
        let ids = [
            NodeId::new(0, 0),
            NodeId::new(0, u32::MAX),
            NodeId::new(1, 0),
            NodeId::new(i32::MAX as u32, 5),
            NodeId::new(i32::MAX as u32 + 1, 0),
            NodeId::new(u32::MAX, u32::MAX),
        ];
        for a in ids {
            for b in ids {
                assert_eq!(node_key(a).cmp(&node_key(b)), a.cmp(&b), "{a} vs {b}");
            }
        }
        // Pre ranks of one fragment are consecutive integers.
        assert_eq!(node_key(NodeId::new(3, 8)) - node_key(NodeId::new(3, 5)), 3);
    }
}
