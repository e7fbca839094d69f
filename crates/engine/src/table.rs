//! Tables: named, `Arc`-shared columns of equal logical length, each
//! optionally filtered through a shared **selection vector**.
//!
//! A [`SelVec`] is a list of physical row indices into the underlying
//! column. `σ`/positional-predicate/`\` chains produce tables whose
//! columns are the *unchanged* input columns plus a selection vector —
//! no gather, no per-value clone. Readers go through [`ColView`], which
//! maps logical row `i` to physical row `sel[i]`; selections compose
//! eagerly (a select over a selected table builds one flat index list),
//! so access stays O(1) with a single indirection at most.

use crate::column::{ColRef, Column, ColumnError};
use crate::item::Item;
use exrquy_algebra::Col;
use std::sync::Arc;

/// A selection vector: physical row indices, in logical row order.
/// Indices may repeat (a join output gathers one physical row many
/// times) and may be empty (everything filtered out).
pub type SelVec = Vec<u32>;

/// Shared selection-vector handle; one vector is typically shared by
/// every column of a filtered table.
pub type SelRef = Arc<SelVec>;

// Intra-query parallelism ships tables between worker threads; keep the
// whole value layer `Send + Sync` by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Item>();
    assert_send_sync::<Column>();
    assert_send_sync::<ColView>();
    assert_send_sync::<Table>();
};

/// A read view of one column: shared column data plus an optional
/// selection vector. Cloning is two `Arc` bumps.
#[derive(Debug, Clone)]
pub struct ColView {
    data: ColRef,
    sel: Option<SelRef>,
}

impl ColView {
    /// A dense view over a whole column.
    pub fn dense(data: ColRef) -> Self {
        ColView { data, sel: None }
    }

    /// A view of `data` through `sel`.
    pub fn selected(data: ColRef, sel: SelRef) -> Self {
        ColView {
            data,
            sel: Some(sel),
        }
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.data.len(),
        }
    }

    /// True when the view exposes no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selection vector, if any.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(|s| s.as_slice())
    }

    /// The underlying (physical) column.
    pub fn data(&self) -> &ColRef {
        &self.data
    }

    /// Physical row index of logical row `i`.
    #[inline]
    fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// Value at logical row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Item {
        self.data.get(self.phys(i))
    }

    /// Integer at logical row `i` (typed invariant error otherwise).
    #[inline]
    pub fn get_int(&self, i: usize) -> Result<i64, ColumnError> {
        self.data.get_int(self.phys(i))
    }

    /// Materialize into a dense `i64` vector.
    pub fn to_int_vec(&self) -> Result<Vec<i64>, ColumnError> {
        match &self.sel {
            None => self.data.to_int_vec(),
            Some(s) => s.iter().map(|&p| self.data.get_int(p as usize)).collect(),
        }
    }

    /// Materialize into a dense column (cheap `Vec` clone when already
    /// dense; see [`to_ref`](Self::to_ref) to avoid even that).
    pub fn to_column(&self) -> Column {
        match &self.sel {
            None => (*self.data).clone(),
            Some(s) => self.data.gather_by(s.iter().map(|&p| p as usize)),
        }
    }

    /// Shared dense column: the existing `Arc` when dense, a gathered
    /// copy otherwise.
    pub fn to_ref(&self) -> ColRef {
        match &self.sel {
            None => self.data.clone(),
            Some(_) => Arc::new(self.to_column()),
        }
    }

    /// Materialize logical rows `idx` into a dense column.
    pub fn gather(&self, idx: &[usize]) -> Column {
        match &self.sel {
            None => self.data.gather(idx),
            Some(s) => self.data.gather_by(idx.iter().map(|&i| s[i] as usize)),
        }
    }

    /// Zero-copy narrowing: view of logical rows `idx` (selection
    /// vectors compose eagerly — the result has one flat indirection).
    pub fn narrow(&self, idx: &SelRef) -> ColView {
        match &self.sel {
            None => ColView::selected(self.data.clone(), idx.clone()),
            Some(s) => {
                let composed: SelVec = idx.iter().map(|&i| s[i as usize]).collect();
                ColView::selected(self.data.clone(), Arc::new(composed))
            }
        }
    }
}

/// One intermediate result: named column views of equal logical length.
#[derive(Debug, Clone)]
pub struct Table {
    cols: Vec<(Col, ColView)>,
    nrows: usize,
}

impl Table {
    /// Build from (name, column) pairs; all columns must have equal length.
    pub fn new(cols: Vec<(Col, Column)>) -> Table {
        let nrows = cols.first().map_or(0, |(_, c)| c.len());
        for (name, c) in &cols {
            assert_eq!(c.len(), nrows, "column `{name}` length mismatch");
        }
        Table {
            cols: cols
                .into_iter()
                .map(|(n, c)| (n, ColView::dense(Arc::new(c))))
                .collect(),
            nrows,
        }
    }

    /// Build from column views (zero-copy constructor of the vectorized
    /// kernels); all views must have logical length `nrows`.
    pub fn from_views(cols: Vec<(Col, ColView)>, nrows: usize) -> Table {
        for (name, v) in &cols {
            assert_eq!(v.len(), nrows, "column `{name}` length mismatch");
        }
        Table { cols, nrows }
    }

    /// An empty table with the given schema.
    pub fn empty(schema: &[Col]) -> Table {
        Table::new(schema.iter().map(|&c| (c, Column::Item(vec![]))).collect())
    }

    /// Number of (logical) rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Column names in layout order.
    pub fn schema(&self) -> Vec<Col> {
        self.cols.iter().map(|(n, _)| *n).collect()
    }

    /// View of column `name`.
    pub fn col(&self, name: Col) -> ColView {
        self.cols
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| panic!("table has no column `{name}`"))
    }

    /// All (name, view) pairs in layout order.
    pub fn columns(&self) -> &[(Col, ColView)] {
        &self.cols
    }

    /// Item at (`row`, `name`).
    pub fn item(&self, name: Col, row: usize) -> Item {
        self.col(name).get(row)
    }

    /// Integer at (`row`, `name`) — test/debug convenience; engine
    /// kernels use the fallible [`ColView::get_int`] instead.
    pub fn int(&self, name: Col, row: usize) -> i64 {
        self.col(name).get_int(row).expect("integer column value")
    }

    /// New table with rows **materialized** by `idx` (the scalar path's
    /// shape; the vectorized path uses [`select_rows`](Self::select_rows)).
    pub fn gather(&self, idx: &[usize]) -> Table {
        Table {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (*n, ColView::dense(Arc::new(c.gather(idx)))))
                .collect(),
            nrows: idx.len(),
        }
    }

    /// New table keeping logical rows `idx`, zero-copy: columns are
    /// shared and filtered through a selection vector. One composed
    /// vector is shared across all columns with identical prior
    /// selection state.
    pub fn select_rows(&self, idx: SelVec) -> Table {
        let idx: SelRef = Arc::new(idx);
        let nrows = idx.len();
        // Compose per distinct prior selection (almost always: none, or
        // one vector shared by every column).
        let mut composed: Vec<(*const SelVec, SelRef)> = Vec::new();
        let cols = self
            .cols
            .iter()
            .map(|(n, v)| {
                let view = match &v.sel {
                    None => ColView::selected(v.data.clone(), idx.clone()),
                    Some(prior) => {
                        let key: *const SelVec = Arc::as_ptr(prior);
                        let sel = match composed.iter().find(|(k, _)| *k == key) {
                            Some((_, s)) => s.clone(),
                            None => {
                                let s: SelRef = Arc::new(
                                    idx.iter().map(|&i| prior[i as usize]).collect::<SelVec>(),
                                );
                                composed.push((key, s.clone()));
                                s
                            }
                        };
                        ColView::selected(v.data.clone(), sel)
                    }
                };
                (*n, view)
            })
            .collect();
        Table { cols, nrows }
    }

    /// New table with an extra (dense, logically aligned) column.
    pub fn with_column(&self, name: Col, col: Column) -> Table {
        assert_eq!(col.len(), self.nrows);
        let mut cols = self.cols.clone();
        cols.push((name, ColView::dense(Arc::new(col))));
        Table {
            cols,
            nrows: self.nrows,
        }
    }

    /// Render as an aligned text table (debugging, examples).
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let names: Vec<String> = self.cols.iter().map(|(n, _)| n.name()).collect();
        let _ = writeln!(out, "| {} |", names.join(" | "));
        for r in 0..self.nrows {
            let vals: Vec<String> = self
                .cols
                .iter()
                .map(|(_, c)| c.get(r).to_xq_string())
                .collect();
            let _ = writeln!(out, "| {} |", vals.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Table::new(vec![
            (Col::ITER, Column::Int(vec![1, 1, 2])),
            (
                Col::ITEM,
                Column::Item(vec![Item::str("a"), Item::str("b"), Item::str("c")]),
            ),
        ]);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.int(Col::ITER, 2), 2);
        assert_eq!(t.item(Col::ITEM, 0), Item::str("a"));
        assert_eq!(t.schema(), vec![Col::ITER, Col::ITEM]);
    }

    #[test]
    fn gather_rows() {
        let t = Table::new(vec![(Col::POS, Column::Int(vec![10, 20, 30]))]);
        let g = t.gather(&[2, 1]);
        assert_eq!(g.nrows(), 2);
        assert_eq!(g.int(Col::POS, 0), 30);
    }

    #[test]
    fn select_rows_is_zero_copy_and_reads_through() {
        let t = Table::new(vec![
            (Col::POS, Column::Int(vec![10, 20, 30, 40])),
            (
                Col::ITEM,
                Column::Item(vec![
                    Item::str("a"),
                    Item::str("b"),
                    Item::str("c"),
                    Item::str("d"),
                ]),
            ),
        ]);
        let s = t.select_rows(vec![3, 1]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.int(Col::POS, 0), 40);
        assert_eq!(s.item(Col::ITEM, 1), Item::str("b"));
        // The physical column is shared, not copied.
        assert!(Arc::ptr_eq(s.col(Col::POS).data(), t.col(Col::POS).data()));
    }

    #[test]
    fn empty_selection() {
        let t = Table::new(vec![(Col::POS, Column::Int(vec![10, 20]))]);
        let s = t.select_rows(vec![]);
        assert_eq!(s.nrows(), 0);
        assert!(s.col(Col::POS).is_empty());
        assert_eq!(s.col(Col::POS).to_column(), Column::Int(vec![]));
        // Selecting from an empty selection stays empty.
        assert_eq!(s.select_rows(vec![]).nrows(), 0);
    }

    #[test]
    fn full_selection_matches_identity() {
        let t = Table::new(vec![(Col::POS, Column::Int(vec![10, 20, 30]))]);
        let s = t.select_rows(vec![0, 1, 2]);
        assert_eq!(s.nrows(), t.nrows());
        for r in 0..3 {
            assert_eq!(s.int(Col::POS, r), t.int(Col::POS, r));
        }
        assert_eq!(s.col(Col::POS).to_column(), Column::Int(vec![10, 20, 30]));
    }

    #[test]
    fn repeated_and_composed_selection() {
        let t = Table::new(vec![(Col::POS, Column::Int(vec![10, 20, 30, 40]))]);
        // Repeated physical rows are legal (join outputs do this).
        let s = t.select_rows(vec![2, 2, 0, 2]);
        assert_eq!(s.nrows(), 4);
        assert_eq!(s.col(Col::POS).to_int_vec().unwrap(), vec![30, 30, 10, 30]);
        // A second selection composes into one flat indirection over the
        // ORIGINAL physical column.
        let s2 = s.select_rows(vec![3, 1]);
        assert_eq!(s2.col(Col::POS).to_int_vec().unwrap(), vec![30, 30]);
        assert_eq!(s2.col(Col::POS).sel(), Some(&[2u32, 2u32][..]));
        assert!(Arc::ptr_eq(s2.col(Col::POS).data(), t.col(Col::POS).data()));
    }

    #[test]
    fn with_column_after_selection_is_logically_aligned() {
        let t = Table::new(vec![(Col::POS, Column::Int(vec![10, 20, 30]))]);
        let s = t.select_rows(vec![2, 0]);
        let s = s.with_column(Col::ITER, Column::Int(vec![7, 8]));
        assert_eq!(s.int(Col::POS, 0), 30);
        assert_eq!(s.int(Col::ITER, 0), 7);
        // Narrow again: dense columns pick up the new selection, the
        // already-selected column composes.
        let n = s.select_rows(vec![1]);
        assert_eq!(n.int(Col::POS, 0), 10);
        assert_eq!(n.int(Col::ITER, 0), 8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_panic() {
        Table::new(vec![
            (Col::ITER, Column::Int(vec![1])),
            (Col::POS, Column::Int(vec![1, 2])),
        ]);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn missing_column_panics() {
        let t = Table::empty(&[Col::ITER]);
        t.col(Col::POS);
    }
}
