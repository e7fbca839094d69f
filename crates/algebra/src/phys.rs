//! Flattened physical plans: the DAG lowered into a dense `Vec<PhysOp>`
//! in topological order, with integer *slot* operands.
//!
//! This is the only plan form the engine executes. Lowering once at
//! prepare time fixes the schedule and turns operand access into array
//! indexing: [`PhysOp::args`] are indices into a result-slot vector
//! allocated per execution — no per-run `topo_order` walk, no `OpId`
//! hash lookups, and a shared subplan is one slot.
//!
//! Lowering also performs **chain fusion**: maximal linear runs of the
//! unary row-shape-preserving operators (`fun`, `σ`, `attach`, `π`) whose
//! intermediates have exactly one consumer collapse into a single
//! [`PhysOp::Fused`] slot. The engine executes a fused chain as one pass
//! over the input batch — selections become selection vectors, function
//! results live in per-row registers, and none of the intermediate tables
//! are ever materialized. The paper's order-indifference result is what
//! makes this legal: once `#`-numbering is deferred, no operator in such
//! a chain observes physical row order, so batching and short-circuiting
//! per row cannot change the (bag) semantics — steps still run in chain
//! order per row, so error semantics are untouched.

use crate::col::Col;
use crate::dag::{Dag, OpId};
use crate::op::{FunKind, Op};
use crate::value::AValue;
use std::collections::HashMap;

/// One step of a fused operator chain, in chain (execution) order.
#[derive(Debug, Clone, PartialEq)]
pub enum FuseStep {
    /// `new := kind(args…)` per row.
    Fun {
        new: Col,
        kind: FunKind,
        args: Vec<Col>,
    },
    /// Drop rows whose `col` is not `true`.
    Select { col: Col },
    /// Bind `col` to a per-row constant.
    Attach { col: Col, value: AValue },
    /// Rename/narrow the visible columns to `(output, input)` pairs.
    Project { cols: Vec<(Col, Col)> },
}

/// One slot of a flattened plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// A single logical operator; `args` are result slots of its children
    /// in [`Op::children`] order.
    Op { id: OpId, args: Vec<u32> },
    /// A fused linear chain over the table in slot `input`.
    Fused {
        input: u32,
        steps: Vec<FuseStep>,
        /// DAG ids folded into this slot, chain order; the last member is
        /// the operator whose table this slot publishes.
        members: Vec<OpId>,
    },
}

impl PhysOp {
    /// Result slots this slot reads, in operand order (with
    /// multiplicity: an operator using one child twice lists it twice).
    pub fn args(&self) -> &[u32] {
        match self {
            PhysOp::Op { args, .. } => args,
            PhysOp::Fused { input, .. } => std::slice::from_ref(input),
        }
    }

    /// DAG id of the operator whose result this slot holds.
    pub fn out_id(&self) -> OpId {
        match self {
            PhysOp::Op { id, .. } => *id,
            PhysOp::Fused { members, .. } => *members.last().expect("fused chain is non-empty"),
        }
    }
}

/// A flattened physical plan: slots in topological order (every slot's
/// operands precede it), root last.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    /// Slots; `ops[i]`'s operands are all `< i`.
    pub ops: Vec<PhysOp>,
    /// Slot holding the root's result (always `ops.len() - 1`).
    pub root: u32,
    /// Number of fused chains.
    pub fused_chains: usize,
    /// Number of logical operators folded into fused chains.
    pub fused_ops: usize,
}

impl PhysPlan {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for a plan with no slots (never produced by [`lower`]).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Is `op` eligible as a fused-chain member? Exactly the unary operators
/// a single batch pass can execute with per-row registers: they preserve
/// or filter the input's rows and add/rename columns, nothing else.
fn fusable(op: &Op) -> bool {
    matches!(
        op,
        Op::Fun { .. } | Op::Select { .. } | Op::Attach { .. } | Op::Project { .. }
    )
}

fn fuse_step(op: &Op) -> FuseStep {
    match op {
        Op::Fun {
            new, kind, args, ..
        } => FuseStep::Fun {
            new: *new,
            kind: *kind,
            args: args.clone(),
        },
        Op::Select { col, .. } => FuseStep::Select { col: *col },
        Op::Attach { col, value, .. } => FuseStep::Attach {
            col: *col,
            value: value.clone(),
        },
        Op::Project { cols, .. } => FuseStep::Project { cols: cols.clone() },
        other => unreachable!("`{}` is not fusable", other.kind_name()),
    }
}

/// Lower the plan rooted at `root` into a flattened slot program. With
/// `fuse` set, single-consumer runs of fusable operators collapse into
/// [`PhysOp::Fused`] chains; without it every operator gets its own slot
/// (the scalar reference shape, used by the vectorization differential).
pub fn lower(dag: &Dag, root: OpId, fuse: bool) -> PhysPlan {
    let order = dag.topo_order(root);
    // Consumer counts with multiplicity over the live plan (an operator
    // using one child twice consumes it twice — such a child cannot be a
    // chain interior, its table is observed two ways).
    let mut consumers: HashMap<OpId, usize> = HashMap::new();
    for &id in &order {
        for c in dag.op(id).children() {
            *consumers.entry(c).or_insert(0) += 1;
        }
    }
    // Chain links: `next[x] = p` when x is fusable, feeds only p, and p
    // is fusable with x as its single input. The root never links out.
    let mut parent_of: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for &id in &order {
        for c in dag.op(id).children() {
            parent_of.entry(c).or_default().push(id);
        }
    }
    let mut next: HashMap<OpId, OpId> = HashMap::new();
    let mut prev: HashMap<OpId, OpId> = HashMap::new();
    if fuse {
        for &id in &order {
            if id == root || !fusable(dag.op(id)) || consumers.get(&id) != Some(&1) {
                continue;
            }
            let p = parent_of[&id][0];
            if fusable(dag.op(p)) {
                next.insert(id, p);
                prev.insert(p, id);
            }
        }
    }
    let mut ops: Vec<PhysOp> = Vec::with_capacity(order.len());
    let mut slot: HashMap<OpId, u32> = HashMap::new();
    let mut fused_chains = 0;
    let mut fused_ops = 0;
    for &id in &order {
        if next.contains_key(&id) {
            // Chain interior: emitted as part of its tail's slot.
            continue;
        }
        if let Some(&tail_prev) = prev.get(&id) {
            // `id` is the tail of a chain of length ≥ 2: walk back to the
            // head, then emit the whole run as one fused slot.
            let mut members = vec![id, tail_prev];
            while let Some(&earlier) = prev.get(members.last().expect("non-empty")) {
                members.push(earlier);
            }
            members.reverse();
            let head = members[0];
            let input = dag.op(head).children()[0];
            let steps: Vec<FuseStep> = members.iter().map(|&m| fuse_step(dag.op(m))).collect();
            fused_chains += 1;
            fused_ops += members.len();
            let s = ops.len() as u32;
            ops.push(PhysOp::Fused {
                input: slot[&input],
                steps,
                members,
            });
            slot.insert(id, s);
        } else {
            let args: Vec<u32> = dag.op(id).children().iter().map(|c| slot[c]).collect();
            let s = ops.len() as u32;
            ops.push(PhysOp::Op { id, args });
            slot.insert(id, s);
        }
    }
    let root_slot = slot[&root];
    debug_assert_eq!(root_slot as usize, ops.len() - 1);
    PhysPlan {
        ops,
        root: root_slot,
        fused_chains,
        fused_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(dag: &mut Dag, cols: Vec<Col>) -> OpId {
        dag.add(Op::Lit { cols, rows: vec![] })
    }

    #[test]
    fn lowers_in_topological_order_with_slot_args() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER]);
        let r = lit(&mut dag, vec![Col::ITER1]);
        let j = dag.add(Op::EquiJoin {
            l,
            r,
            lcol: Col::ITER,
            rcol: Col::ITER1,
        });
        let plan = lower(&dag, j, true);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.root as usize, plan.len() - 1);
        for (i, op) in plan.ops.iter().enumerate() {
            assert!(op.args().iter().all(|&a| (a as usize) < i), "slot {i} args");
        }
    }

    #[test]
    fn fuses_single_consumer_chains() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITEM1, Col::ITEM2]);
        let f = dag.add(Op::Fun {
            input: l,
            new: Col::RES,
            kind: FunKind::Lt,
            args: vec![Col::ITEM1, Col::ITEM2],
        });
        let s = dag.add(Op::Select {
            input: f,
            col: Col::RES,
        });
        let p = dag.add(Op::Project {
            input: s,
            cols: vec![(Col::ITEM, Col::ITEM1)],
        });
        let plan = lower(&dag, p, true);
        // lit + one fused chain of three.
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.fused_chains, 1);
        assert_eq!(plan.fused_ops, 3);
        let PhysOp::Fused { steps, members, .. } = &plan.ops[1] else {
            panic!("expected fused chain, got {:?}", plan.ops[1]);
        };
        assert_eq!(members, &[f, s, p]);
        assert!(matches!(steps[0], FuseStep::Fun { .. }));
        assert!(matches!(steps[1], FuseStep::Select { .. }));
        assert!(matches!(steps[2], FuseStep::Project { .. }));
        // The unfused lowering keeps every operator in its own slot.
        let flat = lower(&dag, p, false);
        assert_eq!(flat.len(), 4);
        assert_eq!(flat.fused_chains, 0);
    }

    #[test]
    fn shared_intermediates_break_chains() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITEM1, Col::ITEM2]);
        let f = dag.add(Op::Fun {
            input: l,
            new: Col::RES,
            kind: FunKind::Lt,
            args: vec![Col::ITEM1, Col::ITEM2],
        });
        let s = dag.add(Op::Select {
            input: f,
            col: Col::RES,
        });
        // `f` feeds both the select and a difference: two consumers, so
        // the f→s link must not fuse.
        let d = dag.add(Op::Difference {
            l: s,
            r: f,
            on: vec![(Col::RES, Col::RES)],
        });
        let plan = lower(&dag, d, true);
        assert_eq!(plan.fused_chains, 0);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn root_is_never_a_chain_interior() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITEM1, Col::ITEM2]);
        let f = dag.add(Op::Fun {
            input: l,
            new: Col::RES,
            kind: FunKind::Lt,
            args: vec![Col::ITEM1, Col::ITEM2],
        });
        // Evaluating `f` itself as the root must publish f's table.
        let plan = lower(&dag, f, true);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.ops[1].out_id(), f);
        // As a root, a single fusable op stays a plain slot.
        assert!(matches!(plan.ops[1], PhysOp::Op { .. }));
    }
}
