//! The plan driver.
//!
//! The engine runs exactly one thing: a flattened [`PhysPlan`].
//! [`Engine::eval_plan`] is one serial loop over its slots in slot (=
//! topological) order: each iteration runs one slot and pushes its
//! table onto a plain `Vec` that the loop owns, so every operand is
//! already there when its consumer runs. `Engine::run_slot` is the
//! single copy of the per-slot bookkeeping (yield-point poll,
//! failpoints, timing, profile, budget charge). A shared subplan is one
//! slot, so it runs once per execution (§3's sharing); the slot vector
//! is the only memo.
//!
//! `eval_pure` dispatches a non-constructing operator to its kernel.
//! The kernels live beside this module by family (`step`, `join`,
//! `sort`, `aggr`, `construct`) and are single-threaded, like the
//! driver: one query runs on one thread.

use crate::aggr::eval_aggr;
use crate::column::{Column, ColumnError};
use crate::construct::{eval_attr, eval_element, eval_textnode};
use crate::funs::{self, DynError};
use crate::item::Item;
use crate::join::{eval_cross, eval_difference, eval_equijoin, eval_thetajoin};
use crate::profile::Profile;
use crate::sort::{eval_distinct, eval_rownum};
use crate::step::eval_step;
use crate::table::{ColView, Table};
use exrquy_algebra::{AValue, Col, Dag, FunKind, Op, OpId, PhysOp, PhysPlan};
use exrquy_diag::{
    BudgetMeter, BudgetViolation, CancellationToken, ErrorCode, ExecutionBudget, Failpoints,
    MemoryTracker,
};
use exrquy_xml::{FragArena, NodeId};
use std::sync::Arc;
use std::time::Instant;

/// Runtime evaluation error, tagged with a W3C-style dynamic error code
/// (or an `EXRQ*` resource-governance code).
#[derive(Debug, Clone)]
pub struct EvalError {
    /// Machine-readable error code.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl EvalError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        EvalError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

impl From<DynError> for EvalError {
    fn from(e: DynError) -> Self {
        EvalError {
            code: e.code,
            message: e.message,
        }
    }
}

impl From<BudgetViolation> for EvalError {
    fn from(v: BudgetViolation) -> Self {
        EvalError {
            code: v.code,
            message: v.message,
        }
    }
}

impl From<ColumnError> for EvalError {
    fn from(e: ColumnError) -> Self {
        EvalError {
            code: ErrorCode::EXRQ0010,
            message: e.to_string(),
        }
    }
}

/// Evaluator knobs.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Resource ceilings enforced at operator boundaries (and inside the
    /// expansion loops of row-explosive operators).
    pub budget: ExecutionBudget,
    /// Cooperative cancellation flag, polled once per evaluated operator.
    pub cancel: Option<CancellationToken>,
    /// Armed failpoints (fault injection). Empty by default; the engine
    /// keeps its own deterministic counters (operators evaluated, `fn:doc`
    /// accesses), so re-running the same plan trips the same failpoint at
    /// the same place. An armed run executes the unfused lowering, so
    /// every trip sits at an operator boundary.
    pub failpoints: Failpoints,
    /// Run the reference arm: the unfused lowering (one operator per
    /// slot) with the row-at-a-time kernel bodies — materializing
    /// gathers, no selection vectors, no fused chains. Same driver; the
    /// vectorization differential runs every query with this toggled
    /// both ways and asserts byte-identical serializations.
    pub scalar: bool,
    /// Absolute request deadline (serving layer). Unlike `budget.max_wall`
    /// — which is relative to execution start — this instant also covers
    /// time the request spent queued; it trips as EXRQ0007 at the same
    /// yield points the wall budget uses, so shed work actually stops.
    pub deadline: Option<std::time::Instant>,
    /// Shared memory gauge (serving layer's watermark governor). When
    /// set, the engine publishes this execution's approximate
    /// constructed-node bytes as it runs; the charge is released when
    /// the engine drops — including by unwinding from a panic.
    pub gauge: Option<exrquy_diag::MemoryGauge>,
}

/// One query execution context.
///
/// The engine reads base documents through the arena's shared catalog
/// and appends every fragment it constructs to the arena's private
/// overlay — the catalog itself is never mutated, so any number of
/// engines may run concurrently over one `Arc<Catalog>`.
pub struct Engine<'d, 's> {
    pub(crate) dag: &'d Dag,
    /// Per-execution fragment overlay over the shared catalog. Dropping
    /// it (with the engine) releases everything this query constructed.
    pub arena: &'s mut FragArena,
    /// Per-kind timing of this execution.
    pub profile: Profile,
    pub(crate) opts: EngineOptions,
    /// Budget/cancellation meter; its decrements and polls are the
    /// yield points.
    pub(crate) meter: BudgetMeter,
    nodes: NodeLedger,
}

/// Constructed-node accounting of one execution.
struct NodeLedger {
    /// Overlay nodes present at engine creation; the constructed-node
    /// ceiling applies to the delta.
    base: usize,
    /// This execution's handle on the serving layer's memory gauge;
    /// its `Drop` releases the charge on any exit path.
    tracker: Option<MemoryTracker>,
}

impl NodeLedger {
    /// Nodes this execution has constructed so far.
    fn constructed(&self, arena: &FragArena) -> usize {
        arena.constructed_nodes().saturating_sub(self.base)
    }

    /// Enforce the node ceiling and publish the bytes constructed so far.
    fn charge(&mut self, arena: &FragArena, meter: &BudgetMeter) -> Result<(), EvalError> {
        let constructed = self.constructed(arena);
        meter.check_nodes(constructed)?;
        if let Some(t) = self.tracker.as_mut() {
            t.charge_to(constructed * exrquy_diag::APPROX_NODE_BYTES);
        }
        Ok(())
    }
}

impl<'d, 's> Engine<'d, 's> {
    /// Create an engine over `dag` evaluating into `arena` (which also
    /// supplies the document registry via its catalog).
    pub fn new(dag: &'d Dag, arena: &'s mut FragArena, opts: EngineOptions) -> Self {
        let mut meter = BudgetMeter::new(opts.budget.clone(), opts.cancel.clone());
        if let Some(at) = opts.deadline {
            meter = meter.with_hard_deadline(at);
        }
        let nodes = NodeLedger {
            base: arena.constructed_nodes(),
            tracker: opts.gauge.as_ref().map(exrquy_diag::MemoryGauge::tracker),
        };
        Engine {
            dag,
            arena,
            profile: Profile::default(),
            opts,
            meter,
            nodes,
        }
    }

    /// Lower the plan rooted at `root` and run it. Callers that prepare
    /// plans ahead of time hand the lowered program to
    /// [`eval_plan`](Self::eval_plan) instead and skip the lowering.
    pub fn eval(&mut self, root: OpId) -> Result<Arc<Table>, EvalError> {
        let plan = exrquy_algebra::lower(self.dag, root, !self.opts.scalar);
        self.eval_plan(&plan)
    }

    /// Run a flattened plan (prepared once, executed many times — the
    /// plan cache holds the lowered program alongside the DAG).
    ///
    /// Fused chains only run vectorized and fault-free: the scalar
    /// reference arm and any run with armed failpoints — including
    /// per-run failpoints on a cached fused plan — execute the unfused
    /// lowering, so injected faults trip at operator boundaries with the
    /// operator counts of a one-operator-per-slot schedule.
    pub fn eval_plan(&mut self, plan: &PhysPlan) -> Result<Arc<Table>, EvalError> {
        let unfused;
        let plan =
            if plan.fused_chains > 0 && (self.opts.scalar || !self.opts.failpoints.is_empty()) {
                let root = plan.ops[plan.root as usize].out_id();
                unfused = exrquy_algebra::lower(self.dag, root, false);
                &unfused
            } else {
                plan
            };
        self.profile.vec.phys_slots += plan.len() as u64;
        self.profile.vec.fused_chains += plan.fused_chains as u64;
        self.profile.vec.fused_ops += plan.fused_ops as u64;
        let mut slots: Vec<Arc<Table>> = Vec::with_capacity(plan.len());
        for i in 0..plan.len() {
            let table = self.run_slot(plan, i, &slots)?;
            slots.push(Arc::new(table));
        }
        Ok(slots.swap_remove(plan.root as usize))
    }

    /// Run slot `i` of `plan` over the tables of the slots before it:
    /// the one copy of the per-slot bookkeeping.
    fn run_slot(
        &mut self,
        plan: &PhysPlan,
        i: usize,
        slots: &[Arc<Table>],
    ) -> Result<Table, EvalError> {
        let phys = &plan.ops[i];
        let out = phys.out_id();
        let slot = |s: u32| &slots[s as usize];
        self.meter.poll()?;
        poll_failpoints(&self.opts.failpoints, self.dag, out, self.meter.ops_seen())?;
        let vec = !self.opts.scalar;
        let started = Instant::now();
        let arena = &mut *self.arena;
        let table = match phys {
            PhysOp::Fused { input, steps, .. } => {
                crate::vec::exec_fused(slot(*input), steps, arena, &self.meter)?
            }
            PhysOp::Op { id, args } => match self.dag.op(*id) {
                Op::Element { twig, .. } => {
                    let before = self.nodes.constructed(arena);
                    let (iters, content) = (slot(args[0]), slot(args[1]));
                    eval_element(arena, iters, content, twig, vec, &self.meter, before)?
                }
                Op::Attr { .. } => eval_attr(arena, slot(args[0]), slot(args[1]), vec)?,
                Op::TextNode { .. } => eval_textnode(arena, slot(args[0]), vec)?,
                op => eval_pure(
                    op,
                    &|k| Arc::clone(slot(args[k])),
                    arena,
                    &self.opts,
                    &self.meter,
                )?,
            },
        };
        self.profile.record(self.dag, out, started.elapsed());
        self.profile.record_rows(out, table.nrows());
        self.meter.charge_rows(table.nrows())?;
        self.nodes.charge(arena, &self.meter)?;
        self.meter.record_op();
        Ok(table)
    }
}

// ------------------------------------------------------- pure operators

/// Evaluate a non-constructing operator: `input` resolves the
/// operator's already evaluated children *by child ordinal* (position in
/// [`Op::children`] order, which `Engine::run_slot` maps to operand
/// slots) and the arena is only read. Writer operators
/// (`Element`/`Attr`/`TextNode`) never reach this function.
pub(crate) fn eval_pure(
    op: &Op,
    input: &dyn Fn(usize) -> Arc<Table>,
    arena: &FragArena,
    opts: &EngineOptions,
    meter: &BudgetMeter,
) -> Result<Table, EvalError> {
    let vec = !opts.scalar;
    match op {
        Op::Lit { cols, rows } => Ok(eval_lit(cols, rows)),
        Op::Doc { url } => {
            let access = meter.record_doc_access();
            if opts.failpoints.doc_io_fails(access) {
                return Err(EvalError::new(
                    ErrorCode::FODC0002,
                    format!("I/O error retrieving document `{url}` (injected at access {access})"),
                ));
            }
            let node = arena.catalog().doc_root(url.as_ref()).ok_or_else(|| {
                EvalError::new(
                    ErrorCode::FODC0002,
                    format!("document `{url}` is not loaded"),
                )
            })?;
            Ok(Table::new(vec![(
                Col::ITEM,
                Column::from_nodes(vec![node], vec),
            )]))
        }
        Op::Project { cols, .. } => {
            let t = input(0);
            let out = cols.iter().map(|(new, src)| (*new, t.col(*src))).collect();
            Ok(Table::from_views(out, t.nrows()))
        }
        Op::Select { col, .. } => {
            let t = input(0);
            eval_select(&t, *col, vec)
        }
        Op::RowNum {
            new, order, part, ..
        } => {
            let t = input(0);
            Ok(eval_rownum(&t, *new, order, *part, vec))
        }
        Op::RowId { new, .. } => {
            let t = input(0);
            let n = t.nrows();
            Ok(t.with_column(*new, Column::Int((1..=n as i64).collect())))
        }
        Op::Attach { col, value, .. } => {
            let t = input(0);
            Ok(t.with_column(*col, attach_column(value, t.nrows(), vec)))
        }
        Op::Fun {
            new, kind, args, ..
        } => {
            let t = input(0);
            eval_fun(arena, &t, *new, *kind, args, vec)
        }
        Op::Aggr {
            kind,
            new,
            arg,
            part,
            ..
        } => {
            let t = input(0);
            eval_aggr(arena, &t, *kind, *new, *arg, *part, vec)
        }
        Op::Distinct { .. } => {
            let t = input(0);
            Ok(eval_distinct(&t, vec))
        }
        Op::Step { axis, test, .. } => {
            let t = input(0);
            eval_step(arena, &t, *axis, *test, vec)
        }
        Op::Cross { .. } => {
            let (lt, rt) = (input(0), input(1));
            eval_cross(&lt, &rt, meter.op_row_cap(), vec)
        }
        Op::EquiJoin { lcol, rcol, .. } => {
            let (lt, rt) = (input(0), input(1));
            eval_equijoin(&lt, &rt, *lcol, *rcol, meter, vec)
        }
        Op::ThetaJoin { pred, .. } => {
            let (lt, rt) = (input(0), input(1));
            eval_thetajoin(&lt, &rt, pred, meter, vec)
        }
        Op::Union { .. } => {
            let (lt, rt) = (input(0), input(1));
            Ok(eval_union(&lt, &rt))
        }
        Op::Difference { on, .. } => {
            let (lt, rt) = (input(0), input(1));
            Ok(eval_difference(&lt, &rt, on, vec))
        }
        Op::Range { lo, hi, new, .. } => {
            let t = input(0);
            eval_range(&t, *lo, *hi, *new, meter, vec)
        }
        Op::Serialize { .. } => Ok((*input(0)).clone()),
        Op::Collection => {
            let catalog = arena.catalog();
            let n = catalog.frag_count() as u32;
            let mut pos = Vec::with_capacity(n as usize);
            let mut items = Vec::with_capacity(n as usize);
            for frag in 0..n {
                let access = meter.record_doc_access();
                if opts.failpoints.doc_io_fails(access) {
                    let url = catalog.frag_url(frag).unwrap_or("<collection>");
                    return Err(EvalError::new(
                        ErrorCode::FODC0002,
                        format!(
                            "I/O error retrieving document `{url}` (injected at access {access})"
                        ),
                    ));
                }
                pos.push(frag as i64 + 1);
                items.push(NodeId::new(frag, 0));
            }
            Ok(Table::new(vec![
                (Col::POS, Column::Int(pos)),
                (Col::ITEM, Column::from_nodes(items, vec)),
            ]))
        }
        Op::Element { .. } | Op::Attr { .. } | Op::TextNode { .. } => {
            unreachable!("writer operators are evaluated by `Engine::run_slot`")
        }
    }
}

// ------------------------------------------------------- row-wise kernels

/// Row-explosive kernels (joins, range expansion) poll the budget meter
/// every this many emitted rows, so cancellation and hard deadlines
/// interrupt a single huge operator instead of waiting for its
/// boundary. Power of two keeps the modulo nearly free.
pub(crate) const POLL_STRIDE: usize = 8192;

/// Constant column for an `attach` (vectorized: integers and booleans
/// stay dense; scalar: the pre-refactor `Int`-or-boxed layout).
pub(crate) fn attach_column(value: &AValue, nrows: usize, vec: bool) -> Column {
    let item = avalue_item(value);
    match &item {
        Item::Int(i) => Column::Int(vec![*i; nrows]),
        Item::Bool(b) if vec => Column::Bool(crate::bits::BitVec::from_iter_exact(
            std::iter::repeat_n(*b, nrows),
        )),
        other => Column::Item(vec![other.clone(); nrows]),
    }
}

fn eval_select(t: &Table, col: Col, vec: bool) -> Result<Table, EvalError> {
    let c = t.col(col);
    let n = t.nrows();
    if vec {
        // Batch kernel: word-at-a-time over dense bit-packed predicates,
        // no per-row boxing otherwise; output rows stay shared behind a
        // selection vector.
        let op = crate::kernels::Operand::from_view(&c, None);
        return Ok(t.select_rows(crate::kernels::select_batch(&op, n)?));
    }
    let mut idx: Vec<usize> = Vec::new();
    for i in 0..n {
        match c.get(i) {
            Item::Bool(true) => idx.push(i),
            Item::Bool(false) => {}
            other => {
                return Err(EvalError::new(
                    ErrorCode::XPTY0004,
                    format!("σ on non-boolean value {other:?}"),
                ))
            }
        }
    }
    Ok(t.gather(&idx))
}

fn eval_fun(
    arena: &FragArena,
    t: &Table,
    new: Col,
    kind: FunKind,
    args: &[Col],
    vec: bool,
) -> Result<Table, EvalError> {
    let arg_cols: Vec<ColView> = args.iter().map(|a| t.col(*a)).collect();
    let n = t.nrows();
    if vec {
        // Batch kernels: integer comparisons and arithmetic run over
        // the raw slices (comparison results bit-packed, integer
        // arithmetic dense); other shapes fall back to the per-row
        // loop inside the kernel, adaptively densified.
        let ops: Vec<crate::kernels::Operand> = arg_cols
            .iter()
            .map(|c| crate::kernels::Operand::from_view(c, None))
            .collect();
        let col = crate::kernels::fun_batch(arena, kind, &ops, n)?;
        return Ok(t.with_column(new, col));
    }
    let mut out = Vec::with_capacity(n);
    let mut buf: Vec<Item> = Vec::with_capacity(arg_cols.len());
    for r in 0..n {
        buf.clear();
        buf.extend(arg_cols.iter().map(|c| c.get(r)));
        out.push(funs::apply(arena, kind, &buf)?);
    }
    Ok(t.with_column(new, Column::Item(out)))
}

// ------------------------------------------------------- free functions

/// Injected-fault checks at the operator boundary: `cancel-after`
/// (counted over evaluated operators) and `budget-trip` (matched on the
/// operator kind about to run). Mirrors [`BudgetMeter::poll`] so injected
/// faults exercise exactly the error paths real exhaustion would take.
pub(crate) fn poll_failpoints(
    failpoints: &Failpoints,
    dag: &Dag,
    id: OpId,
    ops_seen: usize,
) -> Result<(), EvalError> {
    if failpoints.is_empty() {
        return Ok(());
    }
    if failpoints.cancels_at(ops_seen) {
        return Err(EvalError::new(
            ErrorCode::EXRQ0002,
            format!("query cancelled (injected at operator boundary {ops_seen})"),
        ));
    }
    let kind = dag.op(id).kind_name();
    if failpoints.trips_budget(kind) {
        return Err(EvalError::new(
            ErrorCode::EXRQ0001,
            format!("execution budget exceeded (injected in `{kind}` operator {id})"),
        ));
    }
    if failpoints.panics_in(kind) {
        // A real panic, not an error return: the point is to exercise
        // the serving layer's catch_unwind containment (EXRQ0009). Only
        // ever reached with a `panic:<op>` failpoint armed.
        panic!("injected panic in `{kind}` operator {id} (panic:<op> failpoint)");
    }
    Ok(())
}

pub(crate) fn avalue_item(v: &AValue) -> Item {
    match v {
        AValue::Int(i) => Item::Int(*i),
        AValue::Dbl(b) => Item::Dbl(f64::from_bits(*b)),
        AValue::Str(s) => Item::Str(Arc::from(s.as_ref())),
        AValue::Bool(b) => Item::Bool(*b),
    }
}

fn eval_lit(cols: &[Col], rows: &[Vec<AValue>]) -> Table {
    let built: Vec<(Col, Column)> = cols
        .iter()
        .enumerate()
        .map(|(ci, &name)| {
            let all_int = rows.iter().all(|r| matches!(r[ci], AValue::Int(_)));
            let col = if all_int {
                Column::Int(
                    rows.iter()
                        .map(|r| match r[ci] {
                            AValue::Int(i) => i,
                            _ => unreachable!(),
                        })
                        .collect(),
                )
            } else {
                Column::Item(rows.iter().map(|r| avalue_item(&r[ci])).collect())
            };
            (name, col)
        })
        .collect();
    Table::new(built)
}

/// Dense `i64` values of a view whose underlying column is `Int`: the
/// shared slice when unselected, a gathered copy when a selection vector
/// is interposed. `None` for non-`Int` representations.
pub(crate) fn int_view<'a>(c: &'a ColView) -> Option<std::borrow::Cow<'a, [i64]>> {
    match (&**c.data(), c.sel()) {
        (Column::Int(v), None) => Some(std::borrow::Cow::Borrowed(v.as_slice())),
        (Column::Int(v), Some(s)) => Some(std::borrow::Cow::Owned(
            s.iter().map(|&i| v[i as usize]).collect(),
        )),
        _ => None,
    }
}

/// A column the plan guarantees integral (`iter`, `pos`, `ord`) as a
/// slice: [`int_view`] when it is an `Int` column, a checked copy of a
/// boxed one (the reference arm's) otherwise.
pub(crate) fn int_col(c: &ColView) -> Result<std::borrow::Cow<'_, [i64]>, EvalError> {
    match int_view(c) {
        Some(v) => Ok(v),
        None => Ok(std::borrow::Cow::Owned(c.to_int_vec()?)),
    }
}

/// Which integers a [`key_view`] holds: keys of different classes never
/// compare equal (the integer 5 is not the node with key 5), so a join
/// takes its integer path only over two views of one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyClass {
    Int,
    Node,
}

/// A view as exact integer sort/join keys: the values of an `Int`
/// column ([`int_view`]) or a `Node` column's ids packed by
/// [`node_key`](crate::column::node_key) — which order, hash and compare
/// equal exactly as the ids do, so the sortedness probe, the counting
/// sort and the integer join index apply to node columns unchanged.
/// `None` for the boxed and boolean representations.
pub(crate) fn key_view<'a>(c: &'a ColView) -> Option<(KeyClass, std::borrow::Cow<'a, [i64]>)> {
    use crate::column::node_key;
    match (&**c.data(), c.sel()) {
        (Column::Node(v), None) => Some((
            KeyClass::Node,
            std::borrow::Cow::Owned(v.iter().map(|&n| node_key(n)).collect()),
        )),
        (Column::Node(v), Some(s)) => Some((
            KeyClass::Node,
            std::borrow::Cow::Owned(s.iter().map(|&i| node_key(v[i as usize])).collect()),
        )),
        _ => int_view(c).map(|v| (KeyClass::Int, v)),
    }
}

/// The EXRQ0001 error raised when a row-explosive operator would exceed
/// its budget. Raised *before* (or while) materializing, so the budget
/// also bounds memory, not just the reported result size.
pub(crate) fn row_cap_exceeded(cap: usize) -> EvalError {
    EvalError::new(
        ErrorCode::EXRQ0001,
        format!("operator result exceeds the row budget of {cap} rows"),
    )
}

/// Expand `lo..=hi` integer ranges per row (empty when lo > hi). A query
/// like `(1 to 100000000000)` must trip the row budget incrementally, not
/// after exhausting memory, so the cap is checked inside the loop — and
/// the meter is polled there too, so a cancellation or hard deadline
/// stops the expansion instead of waiting out a hundred-million-row op.
fn eval_range(
    t: &Table,
    lo: Col,
    hi: Col,
    new: Col,
    meter: &BudgetMeter,
    vec: bool,
) -> Result<Table, EvalError> {
    let cap = meter.op_row_cap();
    let loc = t.col(lo);
    let hic = t.col(hi);
    let mut idx: Vec<u32> = Vec::new();
    let mut vals: Vec<i64> = Vec::new();
    for r in 0..t.nrows() {
        let (a, b) = (range_int(&loc.get(r))?, range_int(&hic.get(r))?);
        for v in a..=b {
            if vals.len() >= cap {
                return Err(row_cap_exceeded(cap));
            }
            idx.push(r as u32);
            vals.push(v);
            if vals.len().is_multiple_of(POLL_STRIDE) {
                meter.poll()?;
            }
        }
    }
    let base = if vec {
        t.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        t.gather(&idx)
    };
    Ok(base.with_column(new, Column::Int(vals)))
}

fn range_int(i: &Item) -> Result<i64, EvalError> {
    match i.as_number_promoting() {
        Some(f) if f.fract() == 0.0 => Ok(f as i64),
        _ => Err(EvalError::new(
            ErrorCode::FORG0001,
            format!("range bound `{i}` is not an integer"),
        )),
    }
}

fn eval_union(l: &Table, r: &Table) -> Table {
    let mut cols: Vec<(Col, Column)> = Vec::new();
    for (name, lc) in l.columns() {
        let rc = r.col(*name);
        cols.push((*name, lc.to_ref().append(&rc.to_ref())));
    }
    Table::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_algebra::{AggrKind, SortKey};
    use exrquy_xml::{Axis, Catalog, NodeTest};
    use std::sync::Arc;

    fn run(dag: &Dag, root: OpId) -> Table {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(dag, &mut arena, EngineOptions::default());
        (*e.eval(root).unwrap()).clone()
    }

    fn lit(dag: &mut Dag, cols: Vec<Col>, rows: Vec<Vec<i64>>) -> OpId {
        dag.add(Op::Lit {
            cols,
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(AValue::Int).collect())
                .collect(),
        })
    }

    #[test]
    fn rownum_partitions_and_orders() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![2, 30], vec![1, 20], vec![1, 10], vec![2, 40]],
        );
        let r = dag.add(Op::RowNum {
            input: l,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let t = run(&dag, r);
        // row order preserved; numbers assigned per iter by item order
        let nums: Vec<i64> = (0..4).map(|i| t.int(Col::POS, i)).collect();
        assert_eq!(nums, vec![1, 2, 1, 2]);
    }

    #[test]
    fn rownum_descending() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITEM],
            vec![vec![10], vec![30], vec![20]],
        );
        let r = dag.add(Op::RowNum {
            input: l,
            new: Col::POS,
            order: vec![SortKey {
                col: Col::ITEM,
                desc: true,
            }],
            part: None,
        });
        let t = run(&dag, r);
        let nums: Vec<i64> = (0..3).map(|i| t.int(Col::POS, i)).collect();
        assert_eq!(nums, vec![3, 1, 2]);
    }

    #[test]
    fn rowid_attaches_unique_dense() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITEM], vec![vec![9], vec![9], vec![9]]);
        let r = dag.add(Op::RowId {
            input: l,
            new: Col::POS,
        });
        let t = run(&dag, r);
        let mut nums: Vec<i64> = (0..3).map(|i| t.int(Col::POS, i)).collect();
        nums.sort_unstable();
        assert_eq!(nums, vec![1, 2, 3]);
    }

    #[test]
    fn select_and_fun() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITEM1, Col::ITEM2],
            vec![vec![1, 2], vec![3, 3], vec![5, 4]],
        );
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
        let t = run(&dag, s);
        assert_eq!(t.nrows(), 1);
        assert_eq!(t.int(Col::ITEM1, 0), 1);
    }

    #[test]
    fn aggr_count_per_group_and_empty_global() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![1, 10], vec![1, 20], vec![3, 30]],
        );
        let a = dag.add(Op::Aggr {
            input: l,
            kind: AggrKind::Count,
            new: Col::RES,
            arg: None,
            part: Some(Col::ITER),
        });
        let t = run(&dag, a);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.int(Col::ITER, 0), 1);
        assert_eq!(t.item(Col::RES, 0), Item::Int(2));
        assert_eq!(t.item(Col::RES, 1), Item::Int(1));

        // Global count over an empty input still yields one row of 0.
        let empty = lit(&mut dag, vec![Col::ITEM], vec![]);
        let a2 = dag.add(Op::Aggr {
            input: empty,
            kind: AggrKind::Count,
            new: Col::RES,
            arg: None,
            part: None,
        });
        let t2 = run(&dag, a2);
        assert_eq!(t2.nrows(), 1);
        assert_eq!(t2.item(Col::RES, 0), Item::Int(0));
    }

    #[test]
    fn aggr_sum_max_min() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![1, 10], vec![1, 30], vec![2, 5]],
        );
        for (kind, expect1) in [
            (AggrKind::Sum, Item::Dbl(40.0)),
            (AggrKind::Max, Item::Dbl(30.0)),
            (AggrKind::Min, Item::Dbl(10.0)),
            (AggrKind::Avg, Item::Dbl(20.0)),
        ] {
            let a = dag.add(Op::Aggr {
                input: l,
                kind,
                new: Col::RES,
                arg: Some(Col::ITEM),
                part: Some(Col::ITER),
            });
            let t = run(&dag, a);
            assert_eq!(t.item(Col::RES, 0), expect1, "{kind:?}");
        }
    }

    #[test]
    fn equijoin_matches_pairs() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER], vec![vec![1], vec![2], vec![2]]);
        let r = lit(
            &mut dag,
            vec![Col::ITER1, Col::ITEM],
            vec![vec![2, 20], vec![3, 30]],
        );
        let j = dag.add(Op::EquiJoin {
            l,
            r,
            lcol: Col::ITER,
            rcol: Col::ITER1,
        });
        let t = run(&dag, j);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.int(Col::ITEM, 0), 20);
    }

    #[test]
    fn thetajoin_band() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITEM1], vec![vec![10], vec![25]]);
        let r = lit(
            &mut dag,
            vec![Col::ITEM2],
            vec![vec![20], vec![5], vec![30], vec![15]],
        );
        let j = dag.add(Op::ThetaJoin {
            l,
            r,
            pred: vec![(Col::ITEM1, FunKind::Gt, Col::ITEM2)],
        });
        let pairs = |t: &Table| -> Vec<(i64, i64)> {
            (0..t.nrows())
                .map(|i| (t.int(Col::ITEM1, i), t.int(Col::ITEM2, i)))
                .collect()
        };
        // 10 > {5}; 25 > {20,5,15}: left rows in order, each with its
        // right matches in row order, not in value order.
        let t = run(&dag, j);
        assert_eq!(pairs(&t), [(10, 5), (25, 20), (25, 5), (25, 15)]);
        let le = dag.add(Op::ThetaJoin {
            l,
            r,
            pred: vec![(Col::ITEM1, FunKind::Le, Col::ITEM2)],
        });
        // 10 <= {20,30,15}; 25 <= {30}
        let t = run(&dag, le);
        assert_eq!(pairs(&t), [(10, 20), (10, 30), (10, 15), (25, 30)]);
    }

    #[test]
    fn union_aligns_columns() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER, Col::ITEM], vec![vec![1, 10]]);
        // Same column set, different layout order.
        let r = lit(&mut dag, vec![Col::ITEM, Col::ITER], vec![vec![20, 2]]);
        let u = dag.add(Op::Union { l, r });
        let t = run(&dag, u);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.int(Col::ITER, 1), 2);
        assert_eq!(t.int(Col::ITEM, 1), 20);
    }

    #[test]
    fn difference_filters_by_key() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER], vec![vec![1], vec![2], vec![3]]);
        let r = lit(&mut dag, vec![Col::ITER1], vec![vec![2]]);
        let d = dag.add(Op::Difference {
            l,
            r,
            on: vec![(Col::ITER, Col::ITER1)],
        });
        let t = run(&dag, d);
        assert_eq!(t.nrows(), 2);
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![1, 10], vec![1, 10], vec![1, 20]],
        );
        let d = dag.add(Op::Distinct { input: l });
        assert_eq!(run(&dag, d).nrows(), 2);
    }

    #[test]
    fn step_over_document() {
        let mut dag = Dag::new();
        let doc_op = dag.add(Op::Doc {
            url: Arc::from("t.xml"),
        });
        let ctx = dag.add(Op::Attach {
            input: doc_op,
            col: Col::ITER,
            value: AValue::Int(1),
        });
        let mut builder = Catalog::builder();
        builder
            .load_str("t.xml", "<a><b><c/><d/></b><c/></a>")
            .unwrap();
        let catalog = Arc::new(builder.build());

        let name_c = catalog.pool().lookup("c").unwrap();
        let dos = dag.add(Op::Step {
            input: ctx,
            axis: Axis::DescendantOrSelf,
            test: NodeTest::AnyKind,
        });
        let step_c = dag.add(Op::Step {
            input: dos,
            axis: Axis::Child,
            test: NodeTest::Name(name_c),
        });
        let mut arena = FragArena::new(catalog);
        let mut e = Engine::new(&dag, &mut arena, EngineOptions::default());
        let t = e.eval(step_c).unwrap();
        // c1 (pre 3) and c2 (pre 5)
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.item(Col::ITEM, 0), Item::Node(NodeId::new(0, 3)));
        assert_eq!(t.item(Col::ITEM, 1), Item::Node(NodeId::new(0, 5)));
        // Profile recorded step time under "⬡".
        assert!(e.profile.per_kind().contains_key("⬡"));
    }

    #[test]
    fn element_construction_with_content() {
        let mut dag = Dag::new();
        let iters = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        // content: iter 1 → items 10, "x" at pos 1, 2
        let content = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::POS, Col::ITEM, Col::ORD],
            rows: vec![
                vec![
                    AValue::Int(1),
                    AValue::Int(1),
                    AValue::Int(10),
                    AValue::Int(1),
                ],
                vec![
                    AValue::Int(1),
                    AValue::Int(2),
                    AValue::str("x"),
                    AValue::Int(1),
                ],
            ],
        });
        let elem = dag.add(Op::Element {
            iters,
            content,
            twig: Arc::new(exrquy_algebra::Twig::leaf("e", 1)),
        });
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(&dag, &mut arena, EngineOptions::default());
        let t = e.eval(elem).unwrap();
        assert_eq!(t.nrows(), 1);
        let Item::Node(n) = t.item(Col::ITEM, 0) else {
            panic!("expected node")
        };
        let rendered = exrquy_xml::serialize::node_to_string(e.arena, n);
        // adjacent atomics joined with a space into one text node
        assert_eq!(rendered, "<e>10 x</e>");
    }

    #[test]
    fn shared_subplans_evaluate_once() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER], vec![vec![1], vec![2]]);
        let a = dag.add(Op::RowId {
            input: l,
            new: Col::POS,
        });
        let d = dag.add(Op::Difference {
            l: a,
            r: a,
            on: vec![(Col::POS, Col::POS)],
        });
        // The shared `#` is one slot: three operators run, not four.
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(&dag, &mut arena, EngineOptions::default());
        assert_eq!(e.eval(d).unwrap().nrows(), 0);
        assert_eq!(e.meter.ops_seen(), 3);
    }
}
