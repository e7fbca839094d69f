//! Aggregation kernels (`Aggr` in all its kinds).

use crate::column::Column;
use crate::eval::{int_view, EvalError};
use crate::funs;
use crate::item::Item;
use crate::join::FastMap;
use crate::table::Table;
use exrquy_algebra::{AggrKind, Col};
use exrquy_diag::ErrorCode;
use exrquy_xml::{atomize, NodeRead};
use std::borrow::Cow;

pub(crate) fn eval_aggr<R: NodeRead + ?Sized>(
    nodes: &R,
    t: &Table,
    kind: AggrKind,
    new: Col,
    arg: Option<Col>,
    part: Option<Col>,
    vec: bool,
) -> Result<Table, EvalError> {
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
    // Vectorized: sorted integer partitions (the loop-lifted common
    // case: grouped by ascending `iter`) aggregate over contiguous runs
    // — no hash map, no per-row state lookup. Count never reads the
    // argument; sum over a dense integer argument adds in the same row
    // order as the per-row loop, so the f64 accumulation is
    // bit-identical.
    if let (Some(p), true) = (&part_col, vec) {
        if let Some(pv) = int_view(p) {
            if matches!(kind, AggrKind::Count | AggrKind::Sum) && pv.is_sorted() {
                let sum_arg = match (kind, &arg_col) {
                    (AggrKind::Sum, Some(a)) => int_view(a),
                    _ => None,
                };
                let fast = matches!(kind, AggrKind::Count) || sum_arg.is_some();
                if fast {
                    let mut out_part: Vec<i64> = Vec::new();
                    let mut out_val: Vec<Item> = Vec::new();
                    let mut i = 0;
                    while i < pv.len() {
                        let k = pv[i];
                        let mut j = i + 1;
                        while j < pv.len() && pv[j] == k {
                            j += 1;
                        }
                        out_part.push(k);
                        out_val.push(match (kind, &sum_arg) {
                            (AggrKind::Count, _) => Item::Int((j - i) as i64),
                            (_, Some(av)) => {
                                let mut s = 0.0f64;
                                for &x in &av[i..j] {
                                    s += x as f64;
                                }
                                Item::Dbl(s)
                            }
                            _ => unreachable!(),
                        });
                        i = j;
                    }
                    let mut cols: Vec<(Col, Column)> = Vec::new();
                    if let Some(pc) = part {
                        cols.push((pc, Column::Int(out_part)));
                    }
                    cols.push((new, Column::Item(out_val)));
                    return Ok(Table::new(cols));
                }
            }
        }
    }
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
                    let better_max = st.max.as_ref().is_none_or(|m| {
                        funs::compare(&atom, m) == Some(std::cmp::Ordering::Greater)
                    });
                    if better_max {
                        st.max = Some(atom.clone());
                    }
                    let better_min = st
                        .min
                        .as_ref()
                        .is_none_or(|m| funs::compare(&atom, m) == Some(std::cmp::Ordering::Less));
                    if better_min {
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

/// Effective boolean value of an item sequence (`fn:boolean` rules).
fn ebv_of_group(items: &[Item]) -> Result<bool, EvalError> {
    match items {
        [] => Ok(false),
        [first, ..] if first.is_node() => Ok(true),
        [single] => Ok(single.ebv()),
        _ => Err(EvalError::new(
            ErrorCode::FORG0006,
            "effective boolean value of a multi-item atomic sequence (FORG0006)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_xml::NodeId;

    #[test]
    fn ebv_rules_on_groups() {
        assert!(!ebv_of_group(&[]).unwrap());
        assert!(ebv_of_group(&[Item::Node(NodeId::new(0, 0)), Item::Int(0)]).unwrap());
        assert!(!ebv_of_group(&[Item::Int(0)]).unwrap());
        assert!(ebv_of_group(&[Item::Int(1), Item::Int(2)]).is_err());
    }
}
