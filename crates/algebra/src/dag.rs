//! The plan DAG: an interning arena of [`Op`]s with schema inference and
//! structural validation.
//!
//! Interning (hash-consing) means structurally identical subplans are
//! represented once; Pathfinder-emitted code "contains significant sharing
//! opportunities" (§3) and the plan-size numbers the paper reports (19
//! operators for Q6, 235→141 for Q11) count DAG nodes, not tree nodes.

use crate::col::Col;
use crate::op::Op;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Handle to an interned operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Error raised when an operator's inputs do not provide the columns it
/// needs (a compiler bug; surfaced eagerly at plan construction).
#[derive(Debug, Clone)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

/// Interning arena for plan operators.
#[derive(Debug, Default, Clone)]
pub struct Dag {
    ops: Vec<Op>,
    schemas: Vec<Vec<Col>>,
    intern: HashMap<Op, OpId>,
    next_col: u32,
}

impl Dag {
    /// Create an empty DAG.
    pub fn new() -> Self {
        Dag {
            ops: Vec::new(),
            schemas: Vec::new(),
            intern: HashMap::new(),
            next_col: Col::FIRST_FRESH,
        }
    }

    /// Allocate a fresh column name, distinct from every other column in
    /// this DAG.
    pub fn fresh_col(&mut self) -> Col {
        let c = Col(self.next_col);
        self.next_col += 1;
        c
    }

    /// Intern `op`, validating its schema. Panics on schema errors — these
    /// are compiler bugs, not user errors (see [`try_add`](Self::try_add)).
    pub fn add(&mut self, op: Op) -> OpId {
        self.try_add(op).expect("malformed plan operator")
    }

    /// Intern `op`, validating that its inputs provide the columns it
    /// consumes and that its output columns are unambiguous.
    pub fn try_add(&mut self, op: Op) -> Result<OpId, SchemaError> {
        if let Some(&id) = self.intern.get(&op) {
            return Ok(id);
        }
        let schema = self.infer_schema(&op)?;
        let id = OpId(self.ops.len() as u32);
        self.ops.push(op.clone());
        self.schemas.push(schema);
        self.intern.insert(op, id);
        Ok(id)
    }

    /// The operator behind `id`.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.0 as usize]
    }

    /// Output columns of `id`.
    pub fn schema(&self, id: OpId) -> &[Col] {
        &self.schemas[id.0 as usize]
    }

    /// Number of interned operators (over the DAG's lifetime — includes
    /// nodes no longer reachable from any root).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operator was interned yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All operators reachable from `root`.
    pub fn reachable(&self, root: OpId) -> HashSet<OpId> {
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(self.op(id).children());
            }
        }
        seen
    }

    /// Reachable operators from `root` in topological order (children
    /// before parents).
    pub fn topo_order(&self, root: OpId) -> Vec<OpId> {
        let mut order = Vec::new();
        let mut state: HashMap<OpId, bool> = HashMap::new(); // false=open, true=done
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                if state.get(&id) != Some(&true) {
                    state.insert(id, true);
                    order.push(id);
                }
                continue;
            }
            if state.contains_key(&id) {
                continue;
            }
            state.insert(id, false);
            stack.push((id, true));
            for c in self.op(id).children() {
                if state.get(&c) != Some(&true) {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Structurally validate the whole plan rooted at `root`: every
    /// reachable operator must reference only already-interned children
    /// and its stored schema must match what [`try_add`](Self::try_add)
    /// would infer for it today. `add`/`try_add` guarantee this at
    /// construction time; this re-check exists so the optimizer can
    /// verify after every rewrite round that no rule corrupted an
    /// operator it did not build itself.
    pub fn validate_plan(&self, root: OpId) -> Result<(), SchemaError> {
        if root.0 as usize >= self.ops.len() {
            return Err(SchemaError(format!(
                "root {root} out of bounds (dag has {} ops)",
                self.ops.len()
            )));
        }
        for id in self.topo_order(root) {
            let op = self.op(id);
            for c in op.children() {
                // Interning appends, so a well-formed operator's children
                // always have strictly smaller ids (the DAG is acyclic by
                // construction).
                if c >= id {
                    return Err(SchemaError(format!(
                        "{id} ({}): child {c} does not precede its parent",
                        op.kind_name()
                    )));
                }
            }
            let inferred = self
                .infer_schema(op)
                .map_err(|e| SchemaError(format!("{id} ({}): {}", op.kind_name(), e.0)))?;
            if inferred != self.schemas[id.0 as usize] {
                return Err(SchemaError(format!(
                    "{id} ({}): stored schema diverges from inferred schema",
                    op.kind_name()
                )));
            }
        }
        Ok(())
    }

    fn has(&self, id: OpId, col: Col) -> bool {
        self.schema(id).contains(&col)
    }

    fn require(&self, id: OpId, col: Col, ctx: &str) -> Result<(), SchemaError> {
        if self.has(id, col) {
            Ok(())
        } else {
            Err(SchemaError(format!(
                "{ctx}: input {id} lacks column `{col}` (schema: {})",
                self.schema(id)
                    .iter()
                    .map(|c| c.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )))
        }
    }

    fn infer_schema(&self, op: &Op) -> Result<Vec<Col>, SchemaError> {
        let dup_check = |cols: &[Col], ctx: &str| -> Result<(), SchemaError> {
            let mut seen = HashSet::new();
            for c in cols {
                if !seen.insert(*c) {
                    return Err(SchemaError(format!("{ctx}: duplicate output column `{c}`")));
                }
            }
            Ok(())
        };
        let extend = |input: OpId, new: Col, ctx: &str| -> Result<Vec<Col>, SchemaError> {
            let mut s = self.schema(input).to_vec();
            if s.contains(&new) {
                return Err(SchemaError(format!(
                    "{ctx}: new column `{new}` already present in input"
                )));
            }
            s.push(new);
            Ok(s)
        };
        match op {
            Op::Lit { cols, rows } => {
                dup_check(cols, "lit")?;
                for r in rows {
                    if r.len() != cols.len() {
                        return Err(SchemaError("lit: row arity mismatch".into()));
                    }
                }
                Ok(cols.clone())
            }
            Op::Doc { .. } => Ok(vec![Col::ITEM]),
            Op::Project { input, cols } => {
                for (_, src) in cols {
                    self.require(*input, *src, "π")?;
                }
                let out: Vec<Col> = cols.iter().map(|(n, _)| *n).collect();
                dup_check(&out, "π")?;
                Ok(out)
            }
            Op::Select { input, col } => {
                self.require(*input, *col, "σ")?;
                Ok(self.schema(*input).to_vec())
            }
            Op::RowNum {
                input,
                new,
                order,
                part,
            } => {
                for k in order {
                    self.require(*input, k.col, "%")?;
                }
                if let Some(p) = part {
                    self.require(*input, *p, "%")?;
                }
                extend(*input, *new, "%")
            }
            Op::RowId { input, new } => extend(*input, *new, "#"),
            Op::Attach { input, col, .. } => extend(*input, *col, "attach"),
            Op::Fun {
                input, new, args, ..
            } => {
                for a in args {
                    self.require(*input, *a, "fun")?;
                }
                extend(*input, *new, "fun")
            }
            Op::Aggr {
                input,
                new,
                arg,
                part,
                ..
            } => {
                if let Some(a) = arg {
                    self.require(*input, *a, "aggr")?;
                }
                if let Some(p) = part {
                    self.require(*input, *p, "aggr")?;
                    if p == new {
                        return Err(SchemaError("aggr: result column shadows group".into()));
                    }
                    Ok(vec![*p, *new])
                } else {
                    Ok(vec![*new])
                }
            }
            Op::Distinct { input } => Ok(self.schema(*input).to_vec()),
            Op::Step { input, .. } => {
                self.require(*input, Col::ITER, "⬡")?;
                self.require(*input, Col::ITEM, "⬡")?;
                Ok(vec![Col::ITER, Col::ITEM])
            }
            Op::Cross { l, r } => {
                let mut s = self.schema(*l).to_vec();
                for c in self.schema(*r) {
                    if s.contains(c) {
                        return Err(SchemaError(format!("×: overlapping column `{c}`")));
                    }
                    s.push(*c);
                }
                Ok(s)
            }
            Op::EquiJoin { l, r, lcol, rcol } => {
                self.require(*l, *lcol, "⋈")?;
                self.require(*r, *rcol, "⋈")?;
                let mut s = self.schema(*l).to_vec();
                for c in self.schema(*r) {
                    if s.contains(c) {
                        return Err(SchemaError(format!("⋈: overlapping column `{c}`")));
                    }
                    s.push(*c);
                }
                Ok(s)
            }
            Op::ThetaJoin { l, r, pred } => {
                for (lc, k, rc) in pred {
                    if !k.is_comparison() {
                        return Err(SchemaError("⋈θ: predicate must be a comparison".into()));
                    }
                    self.require(*l, *lc, "⋈θ")?;
                    self.require(*r, *rc, "⋈θ")?;
                }
                let mut s = self.schema(*l).to_vec();
                for c in self.schema(*r) {
                    if s.contains(c) {
                        return Err(SchemaError(format!("⋈θ: overlapping column `{c}`")));
                    }
                    s.push(*c);
                }
                Ok(s)
            }
            Op::Union { l, r } => {
                let sl = self.schema(*l);
                let sr = self.schema(*r);
                let set_l: HashSet<Col> = sl.iter().copied().collect();
                let set_r: HashSet<Col> = sr.iter().copied().collect();
                if set_l != set_r {
                    return Err(SchemaError(format!(
                        "∪̇: column sets differ ({} vs {})",
                        sl.iter().map(|c| c.name()).collect::<Vec<_>>().join(","),
                        sr.iter().map(|c| c.name()).collect::<Vec<_>>().join(",")
                    )));
                }
                Ok(sl.to_vec())
            }
            Op::Difference { l, r, on } => {
                if on.is_empty() {
                    return Err(SchemaError("\\: empty key".into()));
                }
                for (lc, rc) in on {
                    self.require(*l, *lc, "\\")?;
                    self.require(*r, *rc, "\\")?;
                }
                Ok(self.schema(*l).to_vec())
            }
            Op::Element { iters, content, .. } => {
                self.require(*iters, Col::ITER, "elem")?;
                for c in [Col::ITER, Col::POS, Col::ITEM, Col::ORD] {
                    self.require(*content, c, "elem")?;
                }
                Ok(vec![Col::ITER, Col::ITEM])
            }
            Op::Attr { names, values } => {
                self.require(*names, Col::ITER, "attr")?;
                self.require(*names, Col::ITEM, "attr")?;
                self.require(*values, Col::ITER, "attr")?;
                self.require(*values, Col::ITEM, "attr")?;
                Ok(vec![Col::ITER, Col::ITEM])
            }
            Op::TextNode { content } => {
                self.require(*content, Col::ITER, "text")?;
                self.require(*content, Col::ITEM, "text")?;
                Ok(vec![Col::ITER, Col::ITEM])
            }
            Op::Range { input, lo, hi, new } => {
                self.require(*input, *lo, "range")?;
                self.require(*input, *hi, "range")?;
                extend(*input, *new, "range")
            }
            Op::Serialize { input } => {
                self.require(*input, Col::POS, "serialize")?;
                self.require(*input, Col::ITEM, "serialize")?;
                Ok(self.schema(*input).to_vec())
            }
            Op::Collection => Ok(vec![Col::POS, Col::ITEM]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::SortKey;
    use crate::value::AValue;

    fn lit1(dag: &mut Dag) -> OpId {
        dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        })
    }

    #[test]
    fn interning_shares_identical_subplans() {
        let mut dag = Dag::new();
        let a = lit1(&mut dag);
        let b = lit1(&mut dag);
        assert_eq!(a, b);
        let p1 = dag.add(Op::Attach {
            input: a,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let p2 = dag.add(Op::Attach {
            input: b,
            col: Col::POS,
            value: AValue::Int(1),
        });
        assert_eq!(p1, p2);
        assert_eq!(dag.len(), 2);
    }

    /// The twig is part of an `elem`'s identity, compared by shape (two
    /// separately built skeletons of one shape are one operator).
    #[test]
    fn interning_tells_elements_apart_by_twig() {
        use crate::op::{Twig, TwigPart};
        use std::sync::Arc;
        let mut dag = Dag::new();
        let iters = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![],
        });
        let content = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::POS, Col::ITEM, Col::ORD],
            rows: vec![],
        });
        let nested = || Twig {
            name: Arc::from("a"),
            parts: vec![TwigPart::Slot(1), TwigPart::Elem(Twig::leaf("b", 0))],
        };
        assert_eq!((nested().elements(), nested().label()), (2, "a·2".into()));
        assert_eq!(nested().to_string(), "a($1,b())");
        let mut elem = |twig: Twig| {
            dag.add(Op::Element {
                iters,
                content,
                twig: Arc::new(twig),
            })
        };
        let (flat, tree) = (elem(Twig::leaf("a", 1)), elem(nested()));
        assert_ne!(flat, tree);
        assert_eq!(elem(nested()), tree);
    }

    #[test]
    fn schema_inference_chains() {
        let mut dag = Dag::new();
        let l = lit1(&mut dag);
        let a = dag.add(Op::Attach {
            input: l,
            col: Col::ITEM,
            value: AValue::Int(7),
        });
        assert_eq!(dag.schema(a), &[Col::ITER, Col::ITEM]);
        let r = dag.add(Op::RowNum {
            input: a,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        assert_eq!(dag.schema(r), &[Col::ITER, Col::ITEM, Col::POS]);
        let p = dag.add(Op::Project {
            input: r,
            cols: vec![(Col::ITER, Col::ITER), (Col::POS1, Col::POS)],
        });
        assert_eq!(dag.schema(p), &[Col::ITER, Col::POS1]);
    }

    #[test]
    fn schema_errors_are_caught() {
        let mut dag = Dag::new();
        let l = lit1(&mut dag);
        // Selecting on a missing column is rejected.
        assert!(dag
            .try_add(Op::Select {
                input: l,
                col: Col::ITEM
            })
            .is_err());
        // Attaching an existing column is rejected.
        assert!(dag
            .try_add(Op::Attach {
                input: l,
                col: Col::ITER,
                value: AValue::Int(0)
            })
            .is_err());
        // Union with differing schemas is rejected.
        let other = dag.add(Op::Lit {
            cols: vec![Col::POS],
            rows: vec![],
        });
        assert!(dag.try_add(Op::Union { l, r: other }).is_err());
    }

    #[test]
    fn topo_order_visits_children_first() {
        let mut dag = Dag::new();
        let l = lit1(&mut dag);
        let a = dag.add(Op::Attach {
            input: l,
            col: Col::ITEM,
            value: AValue::Int(7),
        });
        let b = dag.add(Op::Attach {
            input: l,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let _ = b;
        let order = dag.topo_order(a);
        assert_eq!(order, vec![l, a]);
        // Joining two inputs that both carry `iter` requires a rename first
        // (the paper's plans show π iter1:iter before ⋈ iter=bind).
        assert!(dag
            .try_add(Op::EquiJoin {
                l: a,
                r: b,
                lcol: Col::ITER,
                rcol: Col::ITER,
            })
            .is_err());
    }

    #[test]
    fn validate_plan_accepts_well_formed_plans() {
        let mut dag = Dag::new();
        let l = lit1(&mut dag);
        let a = dag.add(Op::Attach {
            input: l,
            col: Col::ITEM,
            value: AValue::Int(7),
        });
        let r = dag.add(Op::RowNum {
            input: a,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        assert!(dag.validate_plan(r).is_ok());
        // An out-of-bounds root is rejected, not a panic.
        assert!(dag.validate_plan(OpId(999)).is_err());
    }

    #[test]
    fn fresh_cols_are_unique() {
        let mut dag = Dag::new();
        let c1 = dag.fresh_col();
        let c2 = dag.fresh_col();
        assert_ne!(c1, c2);
        assert!(c1.0 >= Col::FIRST_FRESH);
    }
}
