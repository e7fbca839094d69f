//! Aggregation kernels (`Aggr` in all its kinds).
//!
//! Both arms build the same table: one row per partition key in
//! ascending key order, each group folded in row order. The scalar
//! reference arm keys one `State` per group in a hash map, row at a
//! time. The vectorized arm ([`fold_runs`]) has one path for every kind:
//! a fold over runs of the partition column. A loop-lifted aggregate is
//! partitioned by `iter`, which arrives sorted, so each group is a
//! contiguous run, folded with no map and no per-group state. An
//! unsorted partition is first put in stable key order, which keeps the
//! reference's group order, in-group row order and so its f64 summation
//! order. A one-row `StrJoin` group — every one on XMark — builds its
//! item straight from the borrowed string value.

use crate::column::Column;
use crate::eval::{int_col, EvalError};
use crate::funs;
use crate::item::Item;
use crate::join::FastMap;
use crate::table::Table;
use exrquy_algebra::{AggrKind, Col};
use exrquy_diag::ErrorCode;
use exrquy_xml::{atomize, NodeRead};
use std::borrow::Cow;
use std::cmp::Ordering;

pub(crate) fn eval_aggr<R: NodeRead + ?Sized>(
    nodes: &R,
    t: &Table,
    kind: AggrKind,
    new: Col,
    arg: Option<Col>,
    part: Option<Col>,
    vec: bool,
) -> Result<Table, EvalError> {
    if vec {
        return fold_runs(nodes, t, kind, new, arg, part);
    }
    struct State<'n> {
        count: i64,
        sum: f64,
        min: Option<Item>,
        max: Option<Item>,
        any: bool,
        all: bool,
        /// A node's string value borrows its document's text.
        strs: Vec<(i64, Cow<'n, str>)>,
        ebv_items: Vec<Item>,
    }
    impl State<'_> {
        fn new() -> Self {
            State {
                count: 0,
                sum: 0.0,
                min: None,
                max: None,
                any: false,
                all: true,
                strs: Vec::new(),
                ebv_items: Vec::new(),
            }
        }
    }
    let arg_col = arg.map(|a| t.col(a));
    let part_col = part.map(|p| t.col(p));
    let pos_col = if t.schema().contains(&Col::POS) {
        Some(t.col(Col::POS))
    } else {
        None
    };
    let mut groups: Vec<(i64, State)> = Vec::new();
    let mut index: FastMap<i64, usize> = FastMap::default();
    for r in 0..t.nrows() {
        let key = match &part_col {
            Some(p) => p.get_int(r)?,
            None => 0,
        };
        let gi = *index.entry(key).or_insert_with(|| {
            groups.push((key, State::new()));
            groups.len() - 1
        });
        let st = &mut groups[gi].1;
        st.count += 1;
        if let Some(a) = &arg_col {
            let item = a.get(r);
            match kind {
                AggrKind::Sum | AggrKind::Avg => {
                    let v = funs::number_of(nodes, &item).ok_or_else(|| {
                        EvalError::new(
                            ErrorCode::FORG0001,
                            format!("fn:sum on non-numeric value {item}"),
                        )
                    })?;
                    st.sum += v;
                }
                AggrKind::Max | AggrKind::Min => {
                    // Untyped values promote to xs:double for fn:min/max
                    // (F&O §15.4); non-numeric strings compare lexically.
                    let atom = match funs::number_of(nodes, &item) {
                        Some(n) => Item::Dbl(n),
                        None => funs::atomize_item(nodes, &item),
                    };
                    if replaces(&atom, st.max.as_ref(), Ordering::Greater) {
                        st.max = Some(atom.clone());
                    }
                    if replaces(&atom, st.min.as_ref(), Ordering::Less) {
                        st.min = Some(atom);
                    }
                }
                AggrKind::Any | AggrKind::All => {
                    let b = item.ebv();
                    st.any |= b;
                    st.all &= b;
                }
                AggrKind::Ebv => st.ebv_items.push(item),
                AggrKind::StrJoin => {
                    let s = match item {
                        Item::Node(n) => atomize::string_value(nodes.doc_of(n), n.pre),
                        other => Cow::Owned(other.to_xq_string()),
                    };
                    let posv = match &pos_col {
                        Some(p) => p.get_int(r)?,
                        None => r as i64,
                    };
                    st.strs.push((posv, s));
                }
                AggrKind::Count => {}
            }
        }
    }
    // Aggregates over the absent group: with no partition column the output
    // must still carry one row (count of the empty sequence is 0).
    if part_col.is_none() && groups.is_empty() {
        groups.push((0, State::new()));
    }
    // Deterministic group order.
    groups.sort_by_key(|&(k, _)| k);
    let mut out_part: Vec<i64> = Vec::with_capacity(groups.len());
    let mut out_val: Vec<Item> = Vec::with_capacity(groups.len());
    for (key, mut st) in groups {
        let val = match kind {
            AggrKind::Count => Some(Item::Int(st.count)),
            AggrKind::Sum => Some(Item::Dbl(st.sum)),
            AggrKind::Avg => {
                if st.count == 0 {
                    None
                } else {
                    Some(Item::Dbl(st.sum / st.count as f64))
                }
            }
            AggrKind::Max => st.max.take(),
            AggrKind::Min => st.min.take(),
            AggrKind::Any => Some(Item::Bool(st.any)),
            AggrKind::All => Some(Item::Bool(st.all)),
            AggrKind::Ebv => Some(Item::Bool(ebv_of_group(&st.ebv_items)?)),
            AggrKind::StrJoin => {
                st.strs.sort_by_key(|&(p, _)| p);
                let joined = st
                    .strs
                    .iter()
                    .map(|(_, s)| s.as_ref())
                    .collect::<Vec<_>>()
                    .join(" ");
                Some(Item::str(&joined))
            }
        };
        if let Some(v) = val {
            out_part.push(key);
            out_val.push(v);
        }
    }
    let mut cols: Vec<(Col, Column)> = Vec::new();
    if let Some(p) = part {
        cols.push((p, Column::Int(out_part)));
    }
    cols.push((new, Column::Item(out_val)));
    Ok(Table::new(cols))
}

/// The vectorized arm of [`eval_aggr`]: one fold per run of equal
/// partition keys, rows in order; with no partition the input is one
/// group, also when it is empty.
fn fold_runs<R: NodeRead + ?Sized>(
    nodes: &R,
    t: &Table,
    kind: AggrKind,
    new: Col,
    arg: Option<Col>,
    part: Option<Col>,
) -> Result<Table, EvalError> {
    let n = t.nrows();
    let arg = arg.map(|a| t.col(a));
    let pos = t.schema().contains(&Col::POS).then(|| t.col(Col::POS));
    let part_col = part.map(|p| t.col(p));
    let keys = part_col.as_ref().map(int_col).transpose()?;
    // The fold's row order: as stored when the keys are sorted (every
    // loop-lifted call), else stably sorted by key.
    let order: Option<Vec<usize>> = match &keys {
        Some(k) if !k.is_sorted() => {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&r| k[r]);
            Some(order)
        }
        _ => None,
    };
    let row = |i: usize| order.as_ref().map_or(i, |o| o[i]);
    let mut out_part: Vec<i64> = Vec::new();
    let mut out_val: Vec<Item> = Vec::new();
    // `StrJoin` buffers, reused by every group of two or more rows.
    let mut strs: Vec<(i64, Cow<str>)> = Vec::new();
    let mut joined = String::new();
    let mut i = 0;
    while keys.is_none() || i < n {
        let key = keys.as_ref().map_or(0, |k| k[row(i)]);
        let j = match &keys {
            Some(k) => (i + 1..n).find(|&j| k[row(j)] != key).unwrap_or(n),
            None => n,
        };
        let mut items = arg.iter().flat_map(|a| (i..j).map(move |x| a.get(row(x))));
        let val = match kind {
            AggrKind::Count => Some(Item::Int((j - i) as i64)),
            AggrKind::Sum | AggrKind::Avg => {
                let mut sum = 0.0;
                for item in items {
                    sum += funs::number_of(nodes, &item).ok_or_else(|| {
                        EvalError::new(
                            ErrorCode::FORG0001,
                            format!("fn:sum on non-numeric value {item}"),
                        )
                    })?;
                }
                match kind {
                    AggrKind::Sum => Some(Item::Dbl(sum)),
                    _ => (j > i).then(|| Item::Dbl(sum / (j - i) as f64)),
                }
            }
            AggrKind::Max | AggrKind::Min => {
                let want = match kind {
                    AggrKind::Max => Ordering::Greater,
                    _ => Ordering::Less,
                };
                let mut best: Option<Item> = None;
                for item in items {
                    // As in the reference arm: untyped values promote to
                    // xs:double, non-numeric strings compare lexically.
                    let atom = match funs::number_of(nodes, &item) {
                        Some(n) => Item::Dbl(n),
                        None => funs::atomize_item(nodes, &item),
                    };
                    if replaces(&atom, best.as_ref(), want) {
                        best = Some(atom);
                    }
                }
                best
            }
            AggrKind::Any => Some(Item::Bool(items.any(|item| item.ebv()))),
            AggrKind::All => Some(Item::Bool(items.all(|item| item.ebv()))),
            AggrKind::Ebv => {
                let (first, second) = (items.next(), items.next());
                Some(Item::Bool(ebv_of_group(first.iter().chain(&second))?))
            }
            AggrKind::StrJoin => match (&arg, j - i) {
                (None, _) => Some(Item::str("")),
                (Some(a), 1) => Some(match a.get(row(i)) {
                    item @ Item::Str(_) => item,
                    item => Item::str(&string_of(nodes, item)),
                }),
                (Some(a), _) => {
                    strs.clear();
                    for x in i..j {
                        let r = row(x);
                        let p = match &pos {
                            Some(p) => p.get_int(r)?,
                            None => r as i64,
                        };
                        strs.push((p, string_of(nodes, a.get(r))));
                    }
                    if !strs.is_sorted_by_key(|&(p, _)| p) {
                        strs.sort_by_key(|&(p, _)| p);
                    }
                    joined.clear();
                    for (k, (_, s)) in strs.iter().enumerate() {
                        if k > 0 {
                            joined.push(' ');
                        }
                        joined.push_str(s);
                    }
                    Some(Item::str(&joined))
                }
            },
        };
        if let Some(v) = val {
            out_part.push(key);
            out_val.push(v);
        }
        if j == n {
            break;
        }
        i = j;
    }
    let mut cols: Vec<(Col, Column)> = Vec::new();
    if let Some(p) = part {
        cols.push((p, Column::Int(out_part)));
    }
    cols.push((new, Column::Item(out_val)));
    Ok(Table::new(cols))
}

/// A `StrJoin` term: a node's string value borrows its document's text.
fn string_of<R: NodeRead + ?Sized>(nodes: &R, item: Item) -> Cow<'_, str> {
    match item {
        Item::Node(n) => atomize::string_value(nodes.doc_of(n), n.pre),
        other => Cow::Owned(other.to_xq_string()),
    }
}

/// Does `atom` replace `cur`, the running `fn:max` (`want` = `Greater`)
/// or `fn:min` (`Less`) of a group? A NaN replaces any value and is then
/// kept: F&O §14.4.3/§14.4.4 return NaN when the sequence holds one, so
/// the result cannot depend on where in the sequence it sits.
fn replaces(atom: &Item, cur: Option<&Item>, want: Ordering) -> bool {
    let nan = |i: &Item| matches!(i, Item::Dbl(d) if d.is_nan());
    cur.is_none_or(|m| !nan(m) && (nan(atom) || funs::compare(atom, m) == Some(want)))
}

/// Effective boolean value of an item sequence (`fn:boolean` rules).
fn ebv_of_group<'a>(items: impl IntoIterator<Item = &'a Item>) -> Result<bool, EvalError> {
    let mut items = items.into_iter();
    match (items.next(), items.next()) {
        (None, _) => Ok(false),
        (Some(first), _) if first.is_node() => Ok(true),
        (Some(single), None) => Ok(single.ebv()),
        _ => Err(EvalError::new(
            ErrorCode::FORG0006,
            "effective boolean value of a multi-item atomic sequence (FORG0006)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_xml::rng::SmallRng;
    use exrquy_xml::{Catalog, FragArena, NodeId};
    use std::sync::Arc;

    const KINDS: [AggrKind; 9] = [
        AggrKind::Count,
        AggrKind::Sum,
        AggrKind::Max,
        AggrKind::Min,
        AggrKind::Avg,
        AggrKind::Ebv,
        AggrKind::Any,
        AggrKind::All,
        AggrKind::StrJoin,
    ];

    /// A table as comparable text: its schema, then one line per row.
    fn dump(t: &Table) -> Vec<String> {
        let schema = t.schema();
        let mut lines = vec![format!("{schema:?}")];
        lines.extend((0..t.nrows()).map(|r| {
            let cells: Vec<String> = schema
                .iter()
                .map(|&c| format!("{:?}", t.item(c, r)))
                .collect();
            cells.join(" | ")
        }));
        lines
    }

    /// Both arms over every kind × partition shape (sorted, unsorted,
    /// none, empty input) × with and without `pos`, on numeric arguments
    /// (NaN and untyped node values among them) and on arguments holding
    /// one value `fn:sum` cannot add: the same table or the same error.
    #[test]
    fn both_arms_agree_on_every_kind_and_partition() {
        let mut b = Catalog::builder();
        // Elements at pre 2, 4 and 6; their texts at 3, 5 and 7.
        b.load_str("v.xml", "<r><v>7</v><v>2.5</v><v>abc</v></r>")
            .unwrap();
        let arena = FragArena::new(Arc::new(b.build()));
        let node = |pre| Item::Node(NodeId::new(0, pre));
        let numeric = [
            Item::Int(3),
            Item::Int(-1),
            Item::Dbl(0.1),
            Item::Dbl(f64::NAN),
            Item::str("4"),
            Item::str("1e1"),
            node(2),
            node(5),
        ];
        let not_numeric = [Item::str("abc"), Item::Bool(true), node(6)];
        let mut rng = SmallRng::seed_from_u64(36);
        let (mut tables, mut errors) = (0, [0, 0]);
        for case in 0..64 {
            let n = if case % 16 == 0 {
                0
            } else {
                rng.gen_range(1usize..12)
            };
            let mut keys: Vec<i64> = (0..n).map(|_| rng.gen_range(1i64..5)).collect();
            keys.sort_unstable();
            let mut items: Vec<Item> = (0..n)
                .map(|_| numeric[rng.gen_range(0..numeric.len())].clone())
                .collect();
            if n > 0 && case % 2 == 1 {
                items[rng.gen_range(0..n)] =
                    not_numeric[rng.gen_range(0..not_numeric.len())].clone();
            }
            let pos: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..8)).collect();
            let mut unsorted = keys.clone();
            for i in (1..n).rev() {
                unsorted.swap(i, rng.gen_range(0..=i));
            }
            for (keys, part) in [
                (&keys, Some(Col::ITER)),
                (&unsorted, Some(Col::ITER)),
                (&keys, None),
            ] {
                for with_pos in [false, true] {
                    let mut cols = vec![
                        (Col::ITER, Column::Int(keys.clone())),
                        (Col::ITEM, Column::Item(items.clone())),
                    ];
                    if with_pos {
                        cols.push((Col::POS, Column::Int(pos.clone())));
                    }
                    let t = Table::new(cols);
                    for kind in KINDS {
                        let arm =
                            |vec| eval_aggr(&arena, &t, kind, Col::RES, Some(Col::ITEM), part, vec);
                        let ctx = format!("{kind:?} part {part:?} pos {with_pos} on {items:?}");
                        match (arm(false), arm(true)) {
                            (Ok(want), Ok(got)) => {
                                assert_eq!(dump(&got), dump(&want), "{ctx}");
                                tables += 1;
                            }
                            (Err(want), Err(got)) => {
                                assert_eq!(
                                    (got.code, &got.message),
                                    (want.code, &want.message),
                                    "{ctx}"
                                );
                                match want.code {
                                    ErrorCode::FORG0001 => errors[0] += 1,
                                    ErrorCode::FORG0006 => errors[1] += 1,
                                    other => panic!("unexpected {other:?}: {ctx}"),
                                }
                            }
                            (want, got) => panic!("{ctx}: scalar {want:?}, vectorized {got:?}"),
                        }
                    }
                }
            }
        }
        assert!(
            tables > 0 && errors[0] > 0 && errors[1] > 0,
            "{tables} {errors:?}"
        );
    }

    #[test]
    fn ebv_rules_on_groups() {
        assert!(!ebv_of_group(&[]).unwrap());
        assert!(ebv_of_group(&[Item::Node(NodeId::new(0, 0)), Item::Int(0)]).unwrap());
        assert!(!ebv_of_group(&[Item::Int(0)]).unwrap());
        assert!(ebv_of_group(&[Item::Int(1), Item::Int(2)]).is_err());
    }
}
