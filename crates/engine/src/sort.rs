//! Order-bearing kernels: `%` (rownum), the rank-restoring sort, and
//! distinct.

use crate::column::Column;
use crate::eval::{int_view, kernel_threads, run_morsels, EvalError};
use crate::item::GroupKey;
use crate::join::FastHasher;
use crate::table::{ColView, Table};
use exrquy_algebra::Col;
use std::collections::HashMap;

pub(crate) fn eval_rownum(
    t: &Table,
    new: Col,
    order: &[exrquy_algebra::SortKey],
    part: Option<Col>,
    threads: usize,
    vec: bool,
) -> Table {
    let n = t.nrows();
    // Fast path (§7): `%⟨⟩` with no order criteria needs no sort — dense
    // per-group counters in one pass; "this operator comes for free".
    if order.is_empty() {
        let nums: Vec<i64> = match part {
            None => (1..=n as i64).collect(),
            Some(p) => {
                let pc = t.col(p);
                let mut counters: HashMap<GroupKey, i64> = HashMap::new();
                (0..n)
                    .map(|r| {
                        let c = counters.entry(pc.get(r).group_key()).or_insert(0);
                        *c += 1;
                        *c
                    })
                    .collect()
            }
        };
        return t.with_column(new, Column::Int(nums));
    }
    // Sort keys: materialize integer columns once so the comparator
    // avoids per-comparison Item boxing (and selection-vector
    // indirection) — `%` is the hot operator whose cost the whole paper
    // is about, keep its constant factors honest.
    enum Key {
        Int(Vec<i64>, bool),
        Item(ColView, bool),
    }
    impl Key {
        fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
            match self {
                Key::Int(v, desc) => {
                    let o = v[a].cmp(&v[b]);
                    if *desc {
                        o.reverse()
                    } else {
                        o
                    }
                }
                Key::Item(c, desc) => {
                    let o = c.get(a).sort_cmp(&c.get(b));
                    if *desc {
                        o.reverse()
                    } else {
                        o
                    }
                }
            }
        }
        fn eq_rows(&self, a: usize, b: usize) -> bool {
            self.cmp_rows(a, b) == std::cmp::Ordering::Equal
        }
    }
    fn key_for(view: ColView, desc: bool) -> Key {
        match int_view(&view) {
            Some(v) => Key::Int(v.into_owned(), desc),
            None => Key::Item(view, desc),
        }
    }
    let mut keys: Vec<Key> = Vec::with_capacity(order.len() + 1);
    if let Some(p) = part {
        keys.push(key_for(t.col(p), false));
    }
    for k in order {
        keys.push(key_for(t.col(k.col), k.desc));
    }
    let cmp = |a: usize, b: usize| {
        for k in &keys {
            let c = k.cmp_rows(a, b);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    };
    let has_part = part.is_some();
    // Vectorized: a sortedness probe over the materialized keys skips
    // the sort when rows already arrive in key order (the common
    // iter→seq reorder over staircase output, which is produced in
    // document order). A stable sort of sorted input is the identity
    // permutation, so numbering sequentially is bit-identical.
    if vec && (1..n).all(|r| cmp(r - 1, r) != std::cmp::Ordering::Greater) {
        let mut nums = vec![0i64; n];
        let mut rank = 0i64;
        for (r, num) in nums.iter_mut().enumerate() {
            let new_group = match (has_part, r) {
                (_, 0) => true,
                (true, _) => !keys[0].eq_rows(r, r - 1),
                (false, _) => false,
            };
            rank = if new_group { 1 } else { rank + 1 };
            *num = rank;
        }
        return t.with_column(new, Column::Int(nums));
    }
    let idx = stable_sorted_indices(n, threads, &cmp);
    // Dense 1,2,3,… numbering per partition, written back to row order.
    let mut nums = vec![0i64; n];
    let mut rank = 0i64;
    for (k, &row) in idx.iter().enumerate() {
        let new_group = match (has_part, k) {
            (_, 0) => true,
            (true, _) => !keys[0].eq_rows(row, idx[k - 1]),
            (false, _) => false,
        };
        rank = if new_group { 1 } else { rank + 1 };
        nums[row] = rank;
    }
    t.with_column(new, Column::Int(nums))
}

/// Index sort reproducing the serial `sort_by` (stable) bit-for-bit:
/// morsel chunks are stable-sorted in parallel, then folded left-to-right
/// through a left-preference merge. Equal keys keep the lower original
/// index — exactly the stability guarantee of the serial sort — because
/// chunks cover ascending index ranges and the merge prefers the left run
/// on ties.
fn stable_sorted_indices<C>(n: usize, threads: usize, cmp: &C) -> Vec<usize>
where
    C: Fn(usize, usize) -> std::cmp::Ordering + Sync,
{
    let eff = kernel_threads(n, threads);
    if eff <= 1 {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| cmp(a, b));
        return idx;
    }
    let chunks = run_morsels(n, eff, move |range| {
        let mut idx: Vec<usize> = range.collect();
        idx.sort_by(|&a, &b| cmp(a, b));
        Ok(idx)
    })
    .expect("infallible index sort");
    chunks
        .into_iter()
        .reduce(|a, b| stable_merge(&a, &b, cmp))
        .unwrap_or_default()
}

fn stable_merge<C>(a: &[usize], b: &[usize], cmp: &C) -> Vec<usize>
where
    C: Fn(usize, usize) -> std::cmp::Ordering,
{
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i], b[j]) != std::cmp::Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Stable ascending lexicographic sort by integer key columns — the
/// order-restoring compensation the cost-based join enumerator grafts
/// over a reordered join cluster. The rank columns are assigned before
/// any reordering, so sorting by them reproduces the canonical row
/// order byte-for-byte regardless of the join order actually executed.
pub(crate) fn eval_sort(t: &Table, keys: &[Col], vec: bool) -> Result<Table, EvalError> {
    let key_cols: Vec<Vec<i64>> = keys
        .iter()
        .map(|&k| t.col(k).to_int_vec())
        .collect::<Result<_, _>>()?;
    let mut idx: Vec<u32> = (0..t.nrows() as u32).collect();
    // `sort_by` is stable: rows with equal key tuples keep their input
    // order, which the regraft invariant relies on for duplicate ranks.
    idx.sort_by(|&a, &b| {
        for kc in &key_cols {
            match kc[a as usize].cmp(&kc[b as usize]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(if vec {
        t.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        t.gather(&idx)
    })
}

pub(crate) fn eval_distinct(t: &Table, vec: bool) -> Table {
    let mut idx: Vec<u32> = Vec::new();
    // Vectorized: a single dense integer column (distinct over
    // loop-lifted `iter` values, typically ascending) run-dedups when
    // sorted and falls back to an integer set otherwise — no per-row
    // key vector either way. First-occurrence order is what the generic
    // scan produces too, so the reference arm stays byte-identical.
    if let ([(_, c)], true) = (t.columns(), vec) {
        if let Some(v) = int_view(c) {
            if v.is_sorted() {
                for r in 0..v.len() {
                    if r == 0 || v[r] != v[r - 1] {
                        idx.push(r as u32);
                    }
                }
            } else {
                let mut seen: std::collections::HashSet<
                    i64,
                    std::hash::BuildHasherDefault<FastHasher>,
                > = Default::default();
                for (r, &k) in v.iter().enumerate() {
                    if seen.insert(k) {
                        idx.push(r as u32);
                    }
                }
            }
            return if vec {
                t.select_rows(idx)
            } else {
                let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
                t.gather(&idx)
            };
        }
    }
    let mut seen: std::collections::HashSet<
        Vec<GroupKey>,
        std::hash::BuildHasherDefault<FastHasher>,
    > = Default::default();
    for r in 0..t.nrows() {
        let key: Vec<GroupKey> = t
            .columns()
            .iter()
            .map(|(_, c)| c.get(r).group_key())
            .collect();
        if seen.insert(key) {
            idx.push(r as u32);
        }
    }
    if vec {
        t.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        t.gather(&idx)
    }
}
