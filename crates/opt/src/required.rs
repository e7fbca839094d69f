//! Top-down inference of strictly required input columns (§4.1, Fig. 8).

use exrquy_algebra::{Col, Dag, Op, OpId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// For every operator reachable from `root`, the set of its *output*
/// columns that some consumer strictly requires. The root requires
/// `{pos, item}` (serialization of the result sequence).
///
/// `prune_projections` must mirror whether the rewriter is allowed to
/// prune unrequired columns out of `π` operators (rule `project-prune`
/// not disabled). When it is, a projection
/// only demands the sources of its *required* outputs; when pruning is
/// off, the rebuilt projection keeps every column, so every source stays
/// demanded — otherwise a column-dependency bypass upstream could delete
/// the producer of a column the surviving projection still references.
///
/// `one_to_one` names the equi-joins that pair every left row with
/// exactly one right row. When the consumers of such a join want nothing
/// of its right side but the join column, the rewriter replaces it by its
/// left input (`join-elim-key-domain`), so the join columns are demanded
/// only if a consumer reads them — which lets a whole chain of map joins
/// fall in one round instead of one per round.
pub fn required_columns(
    dag: &Dag,
    root: OpId,
    prune_projections: bool,
    one_to_one: &HashSet<OpId>,
) -> HashMap<OpId, BTreeSet<Col>> {
    let order = dag.topo_order(root);
    let mut req: HashMap<OpId, BTreeSet<Col>> = HashMap::new();
    req.insert(root, [Col::POS, Col::ITEM].into_iter().collect());
    // Parents before children: reverse topological order.
    for &id in order.iter().rev() {
        let my_req = req.get(&id).cloned().unwrap_or_default();
        let op = dag.op(id);
        let mut push = |child: OpId, cols: BTreeSet<Col>| {
            req.entry(child).or_default().extend(cols);
        };
        match op {
            Op::Lit { .. } | Op::Doc { .. } | Op::Collection => {}
            Op::Project { input, cols } => {
                let needed: BTreeSet<Col> = cols
                    .iter()
                    .filter(|(new, _)| !prune_projections || my_req.contains(new))
                    .map(|(_, src)| *src)
                    .collect();
                push(*input, needed);
            }
            Op::Select { input, col } => {
                let mut n = my_req.clone();
                n.insert(*col);
                push(*input, n);
            }
            Op::RowNum {
                input,
                new,
                order,
                part,
            } => {
                let mut n: BTreeSet<Col> = my_req.iter().copied().filter(|c| c != new).collect();
                if my_req.contains(new) {
                    // The numbering is consumed: its criteria are required.
                    n.extend(order.iter().map(|k| k.col));
                    n.extend(part.iter().copied());
                }
                push(*input, n);
            }
            Op::RowId { input, new } => {
                // Fig. 8: required(input) = required \ {new}.
                let n = my_req.iter().copied().filter(|c| c != new).collect();
                push(*input, n);
            }
            Op::Attach { input, col, .. } => {
                let n = my_req.iter().copied().filter(|c| c != col).collect();
                push(*input, n);
            }
            Op::Fun {
                input, new, args, ..
            } => {
                // No rule bypasses a `fun`, so it reads its arguments
                // whether or not its result is consumed.
                let mut n: BTreeSet<Col> = my_req.iter().copied().filter(|c| c != new).collect();
                n.extend(args.iter().copied());
                push(*input, n);
            }
            Op::Aggr {
                input,
                kind,
                arg,
                part,
                ..
            } => {
                // Aggregation output depends on group contents and keys
                // regardless of which output columns are consumed.
                let mut n = BTreeSet::new();
                n.extend(arg.iter().copied());
                n.extend(part.iter().copied());
                // Order-sensitive aggregates (string joining) consume the
                // group's `pos` order when the input carries one.
                if *kind == exrquy_algebra::AggrKind::StrJoin
                    && dag.schema(*input).contains(&Col::POS)
                {
                    n.insert(Col::POS);
                }
                push(*input, n);
            }
            Op::Distinct { input } => {
                // Duplicate elimination observes every input column.
                let all: BTreeSet<Col> = dag.schema(*input).iter().copied().collect();
                push(*input, all);
            }
            Op::Step { input, .. } => {
                push(*input, [Col::ITER, Col::ITEM].into_iter().collect());
            }
            Op::Cross { l, r } => {
                let ls: BTreeSet<Col> = dag.schema(*l).iter().copied().collect();
                let rs: BTreeSet<Col> = dag.schema(*r).iter().copied().collect();
                push(*l, my_req.intersection(&ls).copied().collect());
                push(*r, my_req.intersection(&rs).copied().collect());
            }
            Op::EquiJoin { l, r, lcol, rcol } => {
                let ls: BTreeSet<Col> = dag.schema(*l).iter().copied().collect();
                let rs: BTreeSet<Col> = dag.schema(*r).iter().copied().collect();
                let mut ln: BTreeSet<Col> = my_req.intersection(&ls).copied().collect();
                let mut rn: BTreeSet<Col> = my_req.intersection(&rs).copied().collect();
                // A join that is going away demands `lcol` only to copy
                // it into a wanted `rcol` (or so that `l` is not asked
                // for nothing at all).
                let elided =
                    one_to_one.contains(&id) && only_join_col_required(dag, *r, *rcol, &my_req);
                if !elided || my_req.contains(rcol) || ln.is_empty() {
                    ln.insert(*lcol);
                }
                rn.insert(*rcol);
                push(*l, ln);
                push(*r, rn);
            }
            Op::ThetaJoin { l, r, pred } => {
                let ls: BTreeSet<Col> = dag.schema(*l).iter().copied().collect();
                let rs: BTreeSet<Col> = dag.schema(*r).iter().copied().collect();
                let mut ln: BTreeSet<Col> = my_req.intersection(&ls).copied().collect();
                let mut rn: BTreeSet<Col> = my_req.intersection(&rs).copied().collect();
                for (lc, _, rc) in pred {
                    ln.insert(*lc);
                    rn.insert(*rc);
                }
                push(*l, ln);
                push(*r, rn);
            }
            Op::Union { l, r } => {
                push(*l, my_req.clone());
                push(*r, my_req.clone());
            }
            Op::Difference { l, r, on } => {
                let mut ln = my_req.clone();
                ln.extend(on.iter().map(|&(lc, _)| lc));
                push(*l, ln);
                push(*r, on.iter().map(|&(_, rc)| rc).collect());
            }
            Op::Element { iters, content, .. } => {
                push(*iters, [Col::ITER].into_iter().collect());
                let c = [Col::ITER, Col::POS, Col::ITEM, Col::ORD];
                push(*content, c.into_iter().collect());
            }
            Op::Attr { names, values } => {
                push(*names, [Col::ITER, Col::ITEM].into_iter().collect());
                push(*values, [Col::ITER, Col::ITEM].into_iter().collect());
            }
            Op::TextNode { content } => {
                push(*content, [Col::ITER, Col::ITEM].into_iter().collect());
            }
            Op::Range { input, lo, hi, new } => {
                let mut n: BTreeSet<Col> = my_req.iter().copied().filter(|c| c != new).collect();
                n.insert(*lo);
                n.insert(*hi);
                push(*input, n);
            }
            Op::Serialize { input } => {
                push(*input, [Col::POS, Col::ITEM].into_iter().collect());
            }
        }
    }
    req
}

/// Do the consumers (`req`) of a join want no column of its right input
/// `r` other than the join column `rcol`?
pub(crate) fn only_join_col_required(dag: &Dag, r: OpId, rcol: Col, req: &BTreeSet<Col>) -> bool {
    dag.schema(r).iter().all(|c| *c == rcol || !req.contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_algebra::{AValue, SortKey};

    #[test]
    fn rowid_consumes_nothing_extra() {
        // Fig. 8: # pos over π iter,item — pos is not required below the #.
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::POS, Col::ITEM],
            rows: vec![],
        });
        let p = dag.add(Op::Project {
            input: l,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        });
        let h = dag.add(Op::RowId {
            input: p,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: h });
        let req = required_columns(&dag, root, true, &HashSet::new());
        assert!(!req[&l].contains(&Col::POS), "{:?}", req[&l]);
        assert!(req[&l].contains(&Col::ITEM));
    }

    #[test]
    fn rownum_criteria_required_only_when_consumed() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::ITEM],
            rows: vec![],
        });
        let rn = dag.add(Op::RowNum {
            input: l,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        // Consumer drops pos: the sort criteria are not required.
        let drop_pos = dag.add(Op::Project {
            input: rn,
            cols: vec![(Col::ITEM, Col::ITEM)],
        });
        let req = required_columns(&dag, drop_pos, true, &HashSet::new());
        // Root here is the projection; seed {pos, item} intersected away.
        assert!(!req[&rn].contains(&Col::POS));
    }

    #[test]
    fn select_requires_its_predicate_column() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::POS, Col::ITEM, Col::RES],
            rows: vec![],
        });
        let s = dag.add(Op::Select {
            input: l,
            col: Col::RES,
        });
        let root = dag.add(Op::Serialize { input: s });
        let req = required_columns(&dag, root, true, &HashSet::new());
        assert!(req[&l].contains(&Col::RES));
        assert!(req[&l].contains(&Col::POS));
        assert!(req[&l].contains(&Col::ITEM));
    }

    #[test]
    fn fun_arguments_required_even_when_its_result_is_not() {
        // `fn:count(() + 1)`: the count reads only `iter`, but the `fun`
        // stays in the plan, so the producer of its argument must too.
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::ITEM, Col::ITEM1],
            rows: vec![],
        });
        let f = dag.add(Op::Fun {
            input: l,
            new: Col::RES,
            kind: exrquy_algebra::FunKind::Add,
            args: vec![Col::ITEM, Col::ITEM1],
        });
        let root = dag.add(Op::Project {
            input: f,
            cols: vec![(Col::ITER, Col::ITER)],
        });
        let req = required_columns(&dag, root, true, &HashSet::new());
        assert!(!req[&f].contains(&Col::RES));
        assert!(req[&l].contains(&Col::ITEM) && req[&l].contains(&Col::ITEM1));
    }

    #[test]
    fn attach_value_not_required_below() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::ITEM],
            rows: vec![],
        });
        let a = dag.add(Op::Attach {
            input: l,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let root = dag.add(Op::Serialize { input: a });
        let req = required_columns(&dag, root, true, &HashSet::new());
        assert_eq!(req[&l], [Col::ITEM].into_iter().collect::<BTreeSet<_>>());
    }
}
