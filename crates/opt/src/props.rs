//! Bottom-up column property inference (§7).
//!
//! Four facts per column drive the endgame rewrites:
//!
//! * [`ColProp::Const`] — every row carries the same known value (e.g.
//!   the `pos|1` attachments, or `iter` in a single-iteration scope);
//! * [`ColProp::Arbitrary`] — the values were generated by a `#` (or
//!   derived from such values) and therefore carry *no semantic order*:
//!   a `%` sorting by such a column produces one arbitrary permutation
//!   among the admissible ones, so the criterion may be dropped;
//! * *key* ([`keys`]) — the values are unique within the operator's
//!   output;
//! * *domain origin* ([`domains`]) — the column's value set is contained
//!   in (or equal to) the value set of a named column of a named
//!   operator. A join against a key whose domain covers the other
//!   side's is an identity: loop-lifting's map joins are exactly that.

use exrquy_algebra::{AValue, Col, Dag, Op, OpId};
use std::collections::HashMap;

/// Inferred property of one column at one operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColProp {
    /// All rows hold this value.
    Const(AValue),
    /// Arbitrarily generated content (no order semantics).
    Arbitrary,
}

/// Property map: operator → column → property. Columns without an entry
/// have no inferred property.
pub type PropMap = HashMap<OpId, HashMap<Col, ColProp>>;

/// Key map: operator → set of columns whose values are globally unique
/// within that operator's output (§7: "bind is found to contain
/// arbitrary, although unique, entries"). A `%` ordering by a unique
/// column never consults later criteria, so they can be truncated.
pub type KeyMap = HashMap<OpId, std::collections::HashSet<Col>>;

/// Infer globally-unique (key) columns for every operator reachable from
/// `root`.
pub fn keys(dag: &Dag, root: OpId) -> KeyMap {
    use std::collections::HashSet;
    let mut keys: KeyMap = HashMap::new();
    for id in dag.topo_order(root) {
        let of =
            |c: OpId, keys: &KeyMap| -> HashSet<Col> { keys.get(&c).cloned().unwrap_or_default() };
        let op = dag.op(id);
        let mine: HashSet<Col> = match op {
            // Fresh numbering without partitioning is globally unique; with
            // partitioning numbers repeat across groups.
            Op::RowId { input, new } => {
                let mut k = of(*input, &keys);
                k.insert(*new);
                k
            }
            Op::RowNum {
                input, new, part, ..
            } => {
                let mut k = of(*input, &keys);
                if part.is_none() {
                    k.insert(*new);
                }
                k
            }
            // Row-preserving unary operators keep keys; selections and
            // distinct only *remove* rows, which preserves uniqueness.
            Op::Select { input, .. }
            | Op::Attach { input, .. }
            | Op::Fun { input, .. }
            | Op::Distinct { input }
            | Op::Serialize { input } => of(*input, &keys),
            Op::Project { input, cols } => {
                let inp = of(*input, &keys);
                cols.iter()
                    .filter(|(_, src)| inp.contains(src))
                    .map(|(new, _)| *new)
                    .collect()
            }
            // A join multiplies rows: a left key col stays unique iff each
            // left row matches at most one right row (right join col is a
            // key of the right side) — and vice versa.
            Op::EquiJoin { l, r, lcol, rcol } => {
                let (lk, rk) = (of(*l, &keys), of(*r, &keys));
                let mut k = HashSet::new();
                if rk.contains(rcol) {
                    k.extend(lk.iter().copied());
                }
                if lk.contains(lcol) {
                    k.extend(rk.iter().copied());
                }
                k
            }
            // Grouped aggregation emits one row per group: the grouping
            // column is a key of the output.
            Op::Aggr { part: Some(p), .. } => {
                let mut k = HashSet::new();
                k.insert(*p);
                k
            }
            // A single-row literal is trivially unique in every column.
            Op::Lit { cols, rows } if rows.len() <= 1 => cols.iter().copied().collect(),
            // Everything else (unions, products, theta joins, steps,
            // constructors, multi-row literals): no claim.
            _ => HashSet::new(),
        };
        if !mine.is_empty() {
            keys.insert(id, mine);
        }
    }
    keys
}

/// Where a column's values come from: the value set of the column at the
/// annotated operator is a subset of the value set of `col` at `op`, and
/// equal to it when `exact`. Two columns with the same `(op, col)` draw
/// from one set of values, produced once (the DAG shares `op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    pub op: OpId,
    pub col: Col,
    pub exact: bool,
}

impl Origin {
    /// Do both name the same `(op, col)` value set?
    pub fn same_source(self, other: Origin) -> bool {
        self.op == other.op && self.col == other.col
    }
}

/// Domain map: operator → `(column, origin)` pairs. Columns without an
/// entry carry no claim; read it through [`origin`].
pub type DomMap = HashMap<OpId, Vec<(Col, Origin)>>;

/// The origin of `col` at `id`, when the analysis claims one.
pub fn origin(dom: &DomMap, id: OpId, col: Col) -> Option<Origin> {
    let cols = dom.get(&id)?;
    cols.iter().find(|(c, _)| *c == col).map(|(_, o)| *o)
}

/// Infer the domain origin of every column of every operator reachable
/// from `root`.
///
/// Each transfer rule keeps the invariant `values(col at op) ⊆
/// values(origin.col at origin.op)`, with equality when `exact`:
///
/// * `#`, `%`, `Lit` and the new column of `attach`/`fun`/`⬡.item`
///   *start* an origin — the column is its own value set;
/// * π, `attach`, `fun`, `#`, `%` and `sort` keep every input row, so
///   every carried column keeps its value set (and its `exact`); δ drops
///   only duplicate rows and a grouped aggregate emits one row per
///   distinct `part` value, so neither loses a value either;
/// * σ, `⬡` (`iter`), `⋈`, `⋈θ`, `×` and `\` emit values of input rows
///   only but may drop rows: ⊆ survives, `exact` does not;
/// * element and attribute construction emit one node per row of their
///   `iters`/`names` input, so `iter` keeps that input's origin unchanged;
/// * `∪̇` keeps an origin both sides agree on — the union of two subsets
///   is a subset, and equals the whole set as soon as one side does;
/// * everything else makes no claim.
pub fn domains(dag: &Dag, root: OpId) -> DomMap {
    type Cols = Vec<(Col, Origin)>;
    let mut dom: DomMap = HashMap::new();
    for id in dag.topo_order(root) {
        let of = |c: &OpId| -> &[(Col, Origin)] { dom.get(c).map_or(&[], Vec::as_slice) };
        let subset = |cols: &[(Col, Origin)]| -> Cols {
            let weaken = |&(c, o): &(Col, Origin)| (c, Origin { exact: false, ..o });
            cols.iter().map(weaken).collect()
        };
        let only = |cols: &[(Col, Origin)], col: Col| -> Cols {
            cols.iter().filter(|(c, _)| *c == col).copied().collect()
        };
        let fresh = |col: Col| -> (Col, Origin) {
            let (op, exact) = (id, true);
            (col, Origin { op, col, exact })
        };
        let mine: Cols = match dag.op(id) {
            Op::Lit { cols, .. } => cols.iter().map(|&c| fresh(c)).collect(),
            Op::RowId { input, new }
            | Op::RowNum { input, new, .. }
            | Op::Attach {
                input, col: new, ..
            }
            | Op::Fun { input, new, .. } => {
                let mut m = of(input).to_vec();
                m.push(fresh(*new));
                m
            }
            Op::Project { input, cols } => {
                let inp = of(input);
                let renamed = |(new, src): &(Col, Col)| {
                    let (_, o) = inp.iter().find(|(c, _)| c == src)?;
                    Some((*new, *o))
                };
                cols.iter().filter_map(renamed).collect()
            }
            Op::Distinct { input } => of(input).to_vec(),
            Op::Aggr {
                input,
                part: Some(p),
                ..
            } => only(of(input), *p),
            Op::Select { input, .. } => subset(of(input)),
            Op::Step { input, .. } => {
                let mut m = subset(&only(of(input), Col::ITER));
                m.push(fresh(Col::ITEM));
                m
            }
            Op::Cross { l, r } | Op::EquiJoin { l, r, .. } | Op::ThetaJoin { l, r, .. } => {
                let mut m = subset(of(l));
                m.extend(subset(of(r)));
                m
            }
            Op::Difference { l, .. } => subset(of(l)),
            Op::Element { iters: input, .. } | Op::Attr { names: input, .. } => {
                only(of(input), Col::ITER)
            }
            Op::Union { l, r } => {
                let ro = of(r);
                let agreed = |&(c, a): &(Col, Origin)| {
                    let (_, b) = ro.iter().find(|(rc, _)| *rc == c)?;
                    let exact = a.exact || b.exact;
                    a.same_source(*b).then_some((c, Origin { exact, ..a }))
                };
                of(l).iter().filter_map(agreed).collect()
            }
            _ => Vec::new(),
        };
        if !mine.is_empty() {
            dom.insert(id, mine);
        }
    }
    dom
}

/// Infer properties for every operator reachable from `root`.
pub fn properties(dag: &Dag, root: OpId) -> PropMap {
    let mut props: PropMap = HashMap::new();
    for id in dag.topo_order(root) {
        let mut mine: HashMap<Col, ColProp> = HashMap::new();
        let op = dag.op(id);
        let child_props = |c: OpId, props: &PropMap| -> HashMap<Col, ColProp> {
            props.get(&c).cloned().unwrap_or_default()
        };
        match op {
            Op::Lit { cols, rows } => {
                if rows.len() == 1 {
                    for (i, c) in cols.iter().enumerate() {
                        mine.insert(*c, ColProp::Const(rows[0][i].clone()));
                    }
                } else if rows.len() > 1 {
                    for (i, c) in cols.iter().enumerate() {
                        let v = &rows[0][i];
                        if rows.iter().all(|r| &r[i] == v) {
                            mine.insert(*c, ColProp::Const(v.clone()));
                        }
                    }
                }
            }
            Op::Doc { .. } | Op::Collection => {}
            Op::Project { input, cols } => {
                let cp = child_props(*input, &props);
                for (new, src) in cols {
                    if let Some(p) = cp.get(src) {
                        mine.insert(*new, p.clone());
                    }
                }
            }
            Op::Select { input, .. } | Op::Serialize { input } => {
                mine = child_props(*input, &props);
            }
            Op::RowNum {
                input,
                new,
                order,
                part,
            } => {
                let cp = child_props(*input, &props);
                mine = cp.clone();
                // The numbering is arbitrary when every criterion is
                // constant or arbitrary (no real order information).
                let all_arbitrary = order.iter().all(|k| {
                    matches!(
                        cp.get(&k.col),
                        Some(ColProp::Arbitrary) | Some(ColProp::Const(_))
                    )
                });
                let _ = part;
                if all_arbitrary {
                    mine.insert(*new, ColProp::Arbitrary);
                } else {
                    mine.remove(new);
                }
            }
            Op::RowId { input, new } => {
                mine = child_props(*input, &props);
                mine.insert(*new, ColProp::Arbitrary);
            }
            Op::Attach { input, col, value } => {
                mine = child_props(*input, &props);
                mine.insert(*col, ColProp::Const(value.clone()));
            }
            Op::Fun { input, new, .. } => {
                mine = child_props(*input, &props);
                mine.remove(new);
            }
            Op::Aggr { part, input, .. } => {
                if let Some(p) = part {
                    if let Some(prop) = child_props(*input, &props).get(p) {
                        mine.insert(*p, prop.clone());
                    }
                }
            }
            Op::Distinct { input } => {
                mine = child_props(*input, &props);
            }
            Op::Step { input, .. } => {
                let cp = child_props(*input, &props);
                if let Some(p) = cp.get(&Col::ITER) {
                    mine.insert(Col::ITER, p.clone());
                }
            }
            Op::Cross { l, r } | Op::EquiJoin { l, r, .. } | Op::ThetaJoin { l, r, .. } => {
                mine = child_props(*l, &props);
                mine.extend(child_props(*r, &props));
            }
            Op::Union { l, r } => {
                let lp = child_props(*l, &props);
                let rp = child_props(*r, &props);
                for (c, p) in &lp {
                    match (p, rp.get(c)) {
                        (ColProp::Const(a), Some(ColProp::Const(b))) if a == b => {
                            mine.insert(*c, p.clone());
                        }
                        (ColProp::Arbitrary, Some(ColProp::Arbitrary)) => {
                            mine.insert(*c, ColProp::Arbitrary);
                        }
                        _ => {}
                    }
                }
            }
            Op::Difference { l, .. } => {
                mine = child_props(*l, &props);
            }
            Op::Range { input, new, .. } => {
                mine = child_props(*input, &props);
                mine.remove(new);
            }
            Op::Element { .. } | Op::Attr { .. } | Op::TextNode { .. } => {}
        }
        props.insert(id, mine);
    }
    props
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_algebra::SortKey;

    #[test]
    fn attach_is_const_and_rowid_is_arbitrary() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)], vec![AValue::Int(1)]],
        });
        let a = dag.add(Op::Attach {
            input: l,
            col: Col::POS,
            value: AValue::Int(7),
        });
        let h = dag.add(Op::RowId {
            input: a,
            new: Col::BIND,
        });
        let p = properties(&dag, h);
        assert_eq!(p[&l].get(&Col::ITER), Some(&ColProp::Const(AValue::Int(1))));
        assert_eq!(p[&h].get(&Col::POS), Some(&ColProp::Const(AValue::Int(7))));
        assert_eq!(p[&h].get(&Col::BIND), Some(&ColProp::Arbitrary));
    }

    #[test]
    fn rownum_over_arbitrary_criteria_is_arbitrary() {
        // §7: % pos1:⟨bind⟩ where bind came from # — pos1 is arbitrary too.
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITEM],
            rows: vec![],
        });
        let h = dag.add(Op::RowId {
            input: l,
            new: Col::BIND,
        });
        let rn = dag.add(Op::RowNum {
            input: h,
            new: Col::POS1,
            order: vec![SortKey::asc(Col::BIND)],
            part: None,
        });
        let p = properties(&dag, rn);
        assert_eq!(p[&rn].get(&Col::POS1), Some(&ColProp::Arbitrary));

        // …but % over a semantic column is not.
        let rn2 = dag.add(Op::RowNum {
            input: h,
            new: Col::POS1,
            order: vec![SortKey::asc(Col::ITEM)],
            part: None,
        });
        let p2 = properties(&dag, rn2);
        assert_eq!(p2[&rn2].get(&Col::POS1), None);
    }

    #[test]
    fn projection_renames_carry_properties() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![],
        });
        let h = dag.add(Op::RowId {
            input: l,
            new: Col::BIND,
        });
        let pr = dag.add(Op::Project {
            input: h,
            cols: vec![(Col::ITER1, Col::BIND)],
        });
        let p = properties(&dag, pr);
        assert_eq!(p[&pr].get(&Col::ITER1), Some(&ColProp::Arbitrary));
    }

    /// `# bind` over a literal, and the loop-lifting views of it.
    fn numbered(dag: &mut Dag) -> (OpId, OpId, OpId) {
        let src = dag.add(Op::Lit {
            cols: vec![Col::ITEM, Col::RES],
            rows: vec![],
        });
        let h = dag.add(Op::RowId {
            input: src,
            new: Col::BIND,
        });
        let ctx = dag.add(Op::Project {
            input: h,
            cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
        });
        (src, h, ctx)
    }

    #[test]
    fn domains_follow_a_key_through_the_q11_chain() {
        // # bind → π iter:bind → ⬡ → ⋈θ: `iter` still draws from `bind`
        // of the `#`, but no longer covers it; the key-only copy does.
        let mut dag = Dag::new();
        let (_, h, ctx) = numbered(&mut dag);
        let step = dag.add(Op::Step {
            input: ctx,
            axis: exrquy_xml::Axis::Child,
            test: exrquy_xml::NodeTest::Element,
        });
        let left = dag.add(Op::Project {
            input: step,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM1, Col::ITEM)],
        });
        let other = dag.add(Op::Lit {
            cols: vec![Col::ITEM2],
            rows: vec![],
        });
        let theta = dag.add(Op::ThetaJoin {
            l: left,
            r: other,
            pred: vec![(Col::ITEM1, exrquy_algebra::FunKind::Gt, Col::ITEM2)],
        });
        let key_only = dag.add(Op::Project {
            input: h,
            cols: vec![(Col::ITER1, Col::BIND)],
        });
        let join = dag.add(Op::EquiJoin {
            l: theta,
            r: key_only,
            lcol: Col::ITER,
            rcol: Col::ITER1,
        });
        let d = domains(&dag, join);
        let of = |op: OpId, exact: bool| Origin {
            op,
            col: Col::BIND,
            exact,
        };
        let at = |op: OpId, col: Col| origin(&d, op, col).unwrap();
        assert_eq!(at(ctx, Col::ITER), of(h, true));
        assert_eq!(at(step, Col::ITER), of(h, false));
        assert_eq!(at(step, Col::ITEM).op, step, "⬡ starts item's origin");
        assert_eq!(at(theta, Col::ITER), of(h, false));
        assert_eq!(at(key_only, Col::ITER1), of(h, true));
        assert_eq!(at(join, Col::ITER1), of(h, false));
        assert!(keys(&dag, join)[&key_only].contains(&Col::ITER1));
    }

    #[test]
    fn selection_and_disagreeing_unions_lose_the_claim() {
        let mut dag = Dag::new();
        let (src, h, _) = numbered(&mut dag);
        // σ keeps the origin as a strict-subset claim.
        let sel = dag.add(Op::Select {
            input: h,
            col: Col::RES,
        });
        // A second, different `#` over the same rows.
        let h2 = dag.add(Op::RowId {
            input: src,
            new: Col::POS1,
        });
        let a = dag.add(Op::Project {
            input: sel,
            cols: vec![(Col::ITER, Col::BIND)],
        });
        let b = dag.add(Op::Project {
            input: h,
            cols: vec![(Col::ITER, Col::BIND)],
        });
        let c = dag.add(Op::Project {
            input: h2,
            cols: vec![(Col::ITER, Col::POS1)],
        });
        let agree = dag.add(Op::Union { l: a, r: b });
        let differ = dag.add(Op::Union { l: b, r: c });
        let root = dag.add(Op::Union {
            l: agree,
            r: differ,
        });
        let d = domains(&dag, root);
        let at = |op: OpId, col: Col| origin(&d, op, col).unwrap();
        assert!(!at(sel, Col::BIND).exact);
        assert!(!at(a, Col::ITER).exact);
        // One exact side makes the union cover the origin again.
        assert_eq!(at(agree, Col::ITER), at(b, Col::ITER));
        assert!(!d.contains_key(&differ), "{:?}", d.get(&differ));
        assert!(!d.contains_key(&root));
    }
}
