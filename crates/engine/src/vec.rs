//! Fused-chain execution: the register program behind a
//! [`PhysOp::Fused`](exrquy_algebra::PhysOp::Fused) slot.
//!
//! A fused chain (a `fun`/`σ`/`attach`/`π` run collapsed by
//! [`exrquy_algebra::lower`]) executes as a register program over the
//! input batch: base columns stay shared behind selection vectors,
//! function results live in per-row registers, and only the chain's
//! final table is ever materialized.
//!
//! Execution is **step-at-a-time** inside a chain (each step scans the
//! whole live batch before the next starts), not row-at-a-time: that
//! keeps the operator order and the ascending row order within each
//! operator identical to the unfused schedule, so when several rows or
//! steps could fail, the *same* error surfaces. Budget accounting is
//! kept in lockstep too — every interior step charges its output rows
//! and counts as one operator, exactly as it would un-fused.

use crate::column::Column;
use crate::eval::{avalue_item, EvalError};
use crate::item::Item;
use crate::kernels::{fun_batch, select_batch, Operand};
use crate::table::{ColView, SelRef, SelVec, Table};
use exrquy_algebra::{Col, FuseStep};
use exrquy_diag::BudgetMeter;
use exrquy_xml::FragArena;
use std::sync::Arc;

/// Where a visible column's values come from mid-chain.
#[derive(Clone)]
enum Src {
    /// Input-table column by layout index (read through `alive`).
    Base(usize),
    /// Register produced by an earlier `fun` step (aligned to `alive`).
    Reg(usize),
    /// Per-row constant from an `attach` step.
    Const(Item),
}

/// Resolve a column name to its source; first match wins, mirroring
/// [`Table::col`] on the materialized layout.
fn lookup(env: &[(Col, Src)], name: Col) -> Src {
    env.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s.clone())
        .unwrap_or_else(|| panic!("table has no column `{name}`"))
}

/// Kernel operand for `s`: base columns read through the live set
/// composed with their own selection vector, registers are already
/// aligned to the live set, constants stay constants.
fn operand<'a>(
    input: &'a Table,
    regs: &'a [Arc<Column>],
    alive: Option<&'a [u32]>,
    s: &'a Src,
) -> Operand<'a> {
    match s {
        Src::Base(ci) => Operand::from_view(&input.columns()[*ci].1, alive),
        Src::Reg(ri) => Operand::from_column(&regs[*ri]),
        Src::Const(it) => Operand::Const(it),
    }
}

/// Dense constant column of `nrows` copies of `item`.
fn const_column(item: &Item, nrows: usize) -> Column {
    match item {
        Item::Int(i) => Column::Int(vec![*i; nrows]),
        Item::Bool(b) => Column::Bool(crate::bits::BitVec::from_iter_exact(std::iter::repeat_n(
            *b, nrows,
        ))),
        other => Column::Item(vec![other.clone(); nrows]),
    }
}

/// Execute a fused chain over `input` as a single batch program.
pub(crate) fn exec_fused(
    input: &Table,
    steps: &[FuseStep],
    arena: &FragArena,
    meter: &BudgetMeter,
) -> Result<Table, EvalError> {
    let mut env: Vec<(Col, Src)> = input
        .columns()
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, Src::Base(i)))
        .collect();
    // Live rows as physical positions into `input`; `None` = all rows.
    let mut alive: Option<SelVec> = None;
    let mut regs: Vec<Arc<Column>> = Vec::new();
    for (si, step) in steps.iter().enumerate() {
        meter.poll()?;
        let live = alive.as_ref().map_or(input.nrows(), Vec::len);
        match step {
            FuseStep::Fun { new, kind, args } => {
                let srcs: Vec<Src> = args.iter().map(|a| lookup(&env, *a)).collect();
                let ops: Vec<Operand> = srcs
                    .iter()
                    .map(|s| operand(input, &regs, alive.as_deref(), s))
                    .collect();
                let col = fun_batch(arena, *kind, &ops, live)?;
                drop(ops);
                env.push((*new, Src::Reg(regs.len())));
                regs.push(Arc::new(col));
            }
            FuseStep::Select { col } => {
                let src = lookup(&env, *col);
                // Inner scope: the operand borrows `regs`, which the
                // compaction below mutates.
                let keep = {
                    let op = operand(input, &regs, alive.as_deref(), &src);
                    select_batch(&op, live)?
                };
                alive = Some(match alive.as_ref() {
                    None => keep.clone(),
                    Some(a) => keep.iter().map(|&p| a[p as usize]).collect(),
                });
                // Registers stay aligned to the live set: compact them.
                let idx: Vec<usize> = keep.iter().map(|&p| p as usize).collect();
                for reg in &mut regs {
                    *reg = Arc::new(reg.gather(&idx));
                }
            }
            FuseStep::Attach { col, value } => {
                env.push((*col, Src::Const(avalue_item(value))));
            }
            FuseStep::Project { cols } => {
                env = cols
                    .iter()
                    .map(|(new, src)| (*new, lookup(&env, *src)))
                    .collect();
            }
        }
        // Interior steps charge their output and count as one operator,
        // exactly as when evaluated un-fused; the tail's output is
        // charged once at the slot boundary by the caller.
        if si + 1 < steps.len() {
            let now = alive.as_ref().map_or(input.nrows(), Vec::len);
            meter.charge_rows(now)?;
            meter.record_op();
        }
    }
    let nrows = alive.as_ref().map_or(input.nrows(), Vec::len);
    let sel_ref: Option<SelRef> = alive.map(Arc::new);
    let cols: Vec<(Col, ColView)> = env
        .iter()
        .map(|(n, s)| {
            let view = match s {
                // Surviving base columns stay shared — one composed
                // selection vector, zero copies.
                Src::Base(ci) => {
                    let v = &input.columns()[*ci].1;
                    match &sel_ref {
                        None => v.clone(),
                        Some(idx) => v.narrow(idx),
                    }
                }
                // Registers are already dense columns aligned to the
                // live set — share them as-is.
                Src::Reg(ri) => ColView::dense(regs[*ri].clone()),
                Src::Const(it) => ColView::dense(Arc::new(const_column(it, nrows))),
            };
            (*n, view)
        })
        .collect();
    Ok(Table::from_views(cols, nrows))
}
