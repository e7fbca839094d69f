//! The step kernel: `⬡` over (iter, node) context pairs, one staircase
//! join (or name-stream probe) per (iter, fragment) group.

use crate::column::Column;
use crate::eval::{int_view, kernel_threads, run_morsels, EvalError, StepAlgo};
use crate::item::Item;
use crate::table::Table;
use exrquy_algebra::Col;
use exrquy_diag::ErrorCode;
use exrquy_xml::{axis, FragArena, NodeId, NodeRead};

pub(crate) fn eval_step(
    arena: &FragArena,
    t: &Table,
    ax: exrquy_xml::Axis,
    test: exrquy_xml::NodeTest,
    algo: StepAlgo,
    threads: usize,
) -> Result<Table, EvalError> {
    let iter_col = t.col(Col::ITER);
    let item_col = t.col(Col::ITEM);
    // Collect (iter, node) context pairs. Batch extraction: resolve the
    // column representations once and scan slices; the fallback per-row
    // loop handles exotic representations. Row order (and therefore
    // which non-node item errors first) matches the per-row loop.
    let mut ctx: Vec<(i64, NodeId)> = Vec::with_capacity(t.nrows());
    let non_node = |other: &dyn std::fmt::Display| {
        EvalError::new(
            ErrorCode::XPTY0004,
            format!("path step applied to atomic value {other}"),
        )
    };
    match (int_view(&iter_col), &**item_col.data(), item_col.sel()) {
        (Some(iv), Column::Item(items), sel) => {
            let mut push = |r: usize, it: &Item| match it {
                Item::Node(n) => {
                    ctx.push((iv[r], *n));
                    Ok(())
                }
                other => Err(non_node(other)),
            };
            match sel {
                None => {
                    for (r, it) in items.iter().enumerate() {
                        push(r, it)?;
                    }
                }
                Some(s) => {
                    for (r, &p) in s.iter().enumerate() {
                        push(r, &items[p as usize])?;
                    }
                }
            }
        }
        _ => {
            for r in 0..t.nrows() {
                match item_col.get(r) {
                    Item::Node(n) => ctx.push((iter_col.get_int(r)?, n)),
                    other => return Err(non_node(&other)),
                }
            }
        }
    }
    if !ctx.is_sorted() {
        ctx.sort_unstable();
    }
    ctx.dedup();
    // One group per (iter, frag): the staircase-join unit of work.
    // Groups are (start, end) ranges into the sorted `ctx` — the pre
    // ranks are copied into one reusable buffer per morsel rather than
    // one fresh vector per group (a query loop evaluates thousands of
    // single-node groups per step).
    let mut groups: Vec<(i64, u32, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < ctx.len() {
        let (it, frag) = (ctx[i].0, ctx[i].1.frag);
        let start = i;
        while i < ctx.len() && ctx[i].0 == it && ctx[i].1.frag == frag {
            i += 1;
        }
        groups.push((it, frag, start, i));
    }
    // Data-parallel over groups; partials concatenate in group order, so
    // the output is the serial (iter, doc-order) sequence either way.
    let groups = &groups;
    let ctx = &ctx;
    let parts = run_morsels(
        groups.len(),
        kernel_threads(t.nrows(), threads),
        move |range| {
            let mut out_iter: Vec<i64> = Vec::new();
            let mut out_item: Vec<Item> = Vec::new();
            let mut pres: Vec<u32> = Vec::new();
            for g in range {
                let (it, frag, start, end) = groups[g];
                pres.clear();
                pres.extend(ctx[start..end].iter().map(|c| c.1.pre));
                let doc = arena.frag(frag);
                let result = match algo {
                    StepAlgo::Staircase => axis::step(doc, &pres, ax, test),
                    StepAlgo::NameStream => axis::step_name_stream(doc, &pres, ax, test),
                    StepAlgo::Naive => axis::naive(doc, &pres, ax, test),
                };
                out_iter.extend(std::iter::repeat_n(it, result.len()));
                out_item.extend(result.into_iter().map(|p| Item::Node(NodeId::new(frag, p))));
            }
            Ok((out_iter, out_item))
        },
    )?;
    let mut out_iter: Vec<i64> = Vec::new();
    let mut out_item: Vec<Item> = Vec::new();
    for (pi, pv) in parts {
        out_iter.extend(pi);
        out_item.extend(pv);
    }
    Ok(Table::new(vec![
        (Col::ITER, Column::Int(out_iter)),
        (Col::ITEM, Column::Item(out_item)),
    ]))
}
