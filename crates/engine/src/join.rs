//! Join-family kernels: cross, equi-join, theta-join and difference,
//! plus the hashing machinery they (and the grouping kernels) share.

use crate::column::Column;
use crate::eval::{int_view, row_cap_exceeded, EvalError, POLL_STRIDE};
use crate::funs;
use crate::item::{GroupKey, Item};
use crate::table::{ColView, Table};
use exrquy_algebra::{Col, FunKind};
use exrquy_diag::{BudgetMeter, ErrorCode};
use exrquy_xml::NodeId;
use std::collections::HashMap;

/// Multiply-rotate hasher for the batch join kernels: they hash short
/// in-memory keys by the million, where SipHash's HashDoS hardening is
/// all cost and no threat model (the data is already resident).
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let mut last = 0u64;
        for &b in chunks.remainder() {
            last = last << 8 | b as u64;
        }
        self.write_u64(last ^ (bytes.len() as u64) << 56);
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// Borrowed join key with [`Item::group_key`] equality semantics
/// (numbers collapse to their f64 bits) but no per-row allocation or
/// `Arc` clone.
#[derive(PartialEq, Eq, Hash)]
enum RefKey<'a> {
    Node(NodeId),
    Num(u64),
    Str(&'a str),
    Bool(bool),
}

fn ref_key(it: &Item) -> RefKey<'_> {
    match it {
        Item::Node(n) => RefKey::Node(*n),
        Item::Int(i) => RefKey::Num((*i as f64).to_bits()),
        Item::Dbl(d) => RefKey::Num(d.to_bits()),
        Item::Str(s) => RefKey::Str(s),
        Item::Bool(b) => RefKey::Bool(*b),
    }
}

/// Run `f(row, key)` over every row of a view, resolving the column
/// representation and selection vector once outside the loop instead of
/// through per-row `get` dispatch (which clones the item).
fn for_each_key<'a>(c: &'a ColView, mut f: impl FnMut(usize, RefKey<'a>)) {
    match (&**c.data(), c.sel()) {
        (Column::Item(v), None) => {
            for (r, it) in v.iter().enumerate() {
                f(r, ref_key(it));
            }
        }
        (Column::Item(v), Some(s)) => {
            for (r, &p) in s.iter().enumerate() {
                f(r, ref_key(&v[p as usize]));
            }
        }
        (Column::Int(v), None) => {
            for (r, &i) in v.iter().enumerate() {
                f(r, RefKey::Num((i as f64).to_bits()));
            }
        }
        (Column::Int(v), Some(s)) => {
            for (r, &p) in s.iter().enumerate() {
                f(r, RefKey::Num((v[p as usize] as f64).to_bits()));
            }
        }
        (Column::Bool(v), None) => {
            for r in 0..v.len() {
                f(r, RefKey::Bool(v.get(r)));
            }
        }
        (Column::Bool(v), Some(s)) => {
            for (r, &p) in s.iter().enumerate() {
                f(r, RefKey::Bool(v.get(p as usize)));
            }
        }
    }
}

/// Hash-join row-pair builder over borrowed keys — the batch-path
/// replacement for the per-row `group_key` probe loop. Pair order (left
/// rows in order, each with its right matches in right-row order), the
/// row-cap check, and the poll cadence are identical to the scalar
/// loop's, so the kernels are error- and output-interchangeable.
fn hash_join_pairs<'a>(
    lc: &'a ColView,
    rc: &'a ColView,
    cap: usize,
    meter: &BudgetMeter,
    lidx: &mut Vec<u32>,
    ridx: &mut Vec<u32>,
) -> Result<(), EvalError> {
    let mut index: FastMap<RefKey<'a>, Vec<u32>> = FastMap::default();
    for_each_key(rc, |j, k| index.entry(k).or_default().push(j as u32));
    let mut err: Option<EvalError> = None;
    for_each_key(lc, |i, k| {
        if err.is_some() {
            return;
        }
        if let Some(matches) = index.get(&k) {
            for &j in matches {
                if lidx.len() >= cap {
                    err = Some(row_cap_exceeded(cap));
                    return;
                }
                lidx.push(i as u32);
                ridx.push(j);
                if lidx.len().is_multiple_of(POLL_STRIDE) {
                    if let Err(e) = meter.poll() {
                        err = Some(e.into());
                        return;
                    }
                }
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Non-decreasing? One linear scan — cheap next to building a hash
/// index, and the gate for the merge-join batch kernel.
fn is_sorted_run(v: &[i64]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

pub(crate) fn eval_cross(l: &Table, r: &Table, cap: usize, vec: bool) -> Result<Table, EvalError> {
    let (n, m) = (l.nrows(), r.nrows());
    // n·m is known up front — reject oversized (or overflowing) products
    // before allocating anything.
    if n.checked_mul(m).is_none_or(|total| total > cap) {
        return Err(row_cap_exceeded(cap));
    }
    let mut lidx: Vec<u32> = Vec::with_capacity(n * m);
    let mut ridx: Vec<u32> = Vec::with_capacity(n * m);
    for i in 0..n {
        for j in 0..m {
            lidx.push(i as u32);
            ridx.push(j as u32);
        }
    }
    Ok(join_output(l, r, lidx, ridx, vec))
}

/// Assemble a join's output from matched (left, right) row pairs. The
/// vectorized shape shares both inputs' columns behind two selection
/// vectors — a join emits zero copied cells; the scalar shape gathers.
fn join_output(l: &Table, r: &Table, lidx: Vec<u32>, ridx: Vec<u32>, vec: bool) -> Table {
    let nrows = lidx.len();
    if vec {
        // `select_rows` composes any prior selection once per distinct
        // vector (not once per column), so a chain of joins stays one
        // indirection deep per side.
        let lt = l.select_rows(lidx);
        let rt = r.select_rows(ridx);
        let mut cols: Vec<(Col, ColView)> =
            Vec::with_capacity(l.columns().len() + r.columns().len());
        for (name, c) in lt.columns() {
            cols.push((*name, c.clone()));
        }
        for (name, c) in rt.columns() {
            cols.push((*name, c.clone()));
        }
        return Table::from_views(cols, nrows);
    }
    let lidx: Vec<usize> = lidx.iter().map(|&i| i as usize).collect();
    let ridx: Vec<usize> = ridx.iter().map(|&i| i as usize).collect();
    let mut cols: Vec<(Col, Column)> = Vec::new();
    for (name, c) in l.columns() {
        cols.push((*name, c.gather(&lidx)));
    }
    for (name, c) in r.columns() {
        cols.push((*name, c.gather(&ridx)));
    }
    Table::new(cols)
}

pub(crate) fn eval_equijoin(
    l: &Table,
    r: &Table,
    lcol: Col,
    rcol: Col,
    meter: &BudgetMeter,
    vec: bool,
) -> Result<Table, EvalError> {
    let cap = meter.op_row_cap();
    let lc = l.col(lcol);
    let rc = r.col(rcol);
    // Fast path: both integer columns. Skewed keys make the match count
    // quadratic in the worst case, so the budget is checked at each push.
    let (mut lidx, mut ridx): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    match (int_view(&lc), int_view(&rc)) {
        // Batch kernel: loop-lifted plans join on `iter` columns, which
        // arrive sorted on both sides — a linear merge needs no hash
        // table (and none of its per-distinct-key allocations). The pair
        // stream it emits is exactly the hash join's (left rows in
        // order, matching right rows in order within each), so the two
        // kernels are output- and error-interchangeable.
        (Some(lv), Some(rv)) if vec && is_sorted_run(&lv) && is_sorted_run(&rv) => {
            let (mut i, mut j) = (0usize, 0usize);
            while i < lv.len() && j < rv.len() {
                let v = lv[i];
                if v < rv[j] {
                    i += 1;
                } else if v > rv[j] {
                    j += 1;
                } else {
                    // Equal-key group: [j, je) on the right.
                    let mut je = j + 1;
                    while je < rv.len() && rv[je] == v {
                        je += 1;
                    }
                    while i < lv.len() && lv[i] == v {
                        for j2 in j..je {
                            if lidx.len() >= cap {
                                return Err(row_cap_exceeded(cap));
                            }
                            lidx.push(i as u32);
                            ridx.push(j2 as u32);
                            if lidx.len().is_multiple_of(POLL_STRIDE) {
                                meter.poll()?;
                            }
                        }
                        i += 1;
                    }
                    j = je;
                }
            }
        }
        (Some(lv), Some(rv)) => {
            let mut index: HashMap<i64, Vec<u32>> = HashMap::new();
            for (j, &v) in rv.iter().enumerate() {
                index.entry(v).or_default().push(j as u32);
            }
            for (i, &v) in lv.iter().enumerate() {
                if let Some(matches) = index.get(&v) {
                    for &j in matches {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j);
                        if lidx.len().is_multiple_of(POLL_STRIDE) {
                            meter.poll()?;
                        }
                    }
                }
            }
        }
        _ if vec => hash_join_pairs(&lc, &rc, cap, meter, &mut lidx, &mut ridx)?,
        _ => {
            let mut index: HashMap<GroupKey, Vec<u32>> = HashMap::new();
            for j in 0..r.nrows() {
                index
                    .entry(rc.get(j).group_key())
                    .or_default()
                    .push(j as u32);
            }
            for i in 0..l.nrows() {
                if let Some(matches) = index.get(&lc.get(i).group_key()) {
                    for &j in matches {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j);
                        if lidx.len().is_multiple_of(POLL_STRIDE) {
                            meter.poll()?;
                        }
                    }
                }
            }
        }
    }
    Ok(join_output(l, r, lidx, ridx, vec))
}

pub(crate) fn eval_thetajoin(
    l: &Table,
    r: &Table,
    pred: &[(Col, FunKind, Col)],
    meter: &BudgetMeter,
    vec: bool,
) -> Result<Table, EvalError> {
    // Invariant: the compiler only emits ThetaJoin with a non-empty
    // predicate list (an empty one would be a Cross in disguise).
    assert!(!pred.is_empty(), "theta join needs at least one predicate");
    let cap = meter.op_row_cap();
    let (p0l, k0, p0r) = pred[0];
    let lc = l.col(p0l);
    let rc = r.col(p0r);
    let (mut lidx, mut ridx): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    match k0 {
        FunKind::Eq if vec => {
            hash_join_pairs(&lc, &rc, cap, meter, &mut lidx, &mut ridx)?;
        }
        FunKind::Eq => {
            let mut index: HashMap<GroupKey, Vec<u32>> = HashMap::new();
            for j in 0..r.nrows() {
                index
                    .entry(rc.get(j).group_key())
                    .or_default()
                    .push(j as u32);
            }
            for i in 0..l.nrows() {
                if let Some(matches) = index.get(&lc.get(i).group_key()) {
                    for &j in matches {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j);
                        if lidx.len().is_multiple_of(POLL_STRIDE) {
                            meter.poll()?;
                        }
                    }
                }
            }
        }
        FunKind::Lt | FunKind::Le | FunKind::Gt | FunKind::Ge => {
            // Band join: sort the right side numerically, emit a range per
            // left row. Non-numeric values never match.
            let mut rvals: Vec<(f64, u32)> = (0..r.nrows())
                .filter_map(|j| rc.get(j).as_number_promoting().map(|v| (v, j as u32)))
                .filter(|(v, _)| !v.is_nan())
                .collect();
            // NaNs were filtered above, so partial_cmp cannot return None.
            rvals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let keys: Vec<f64> = rvals.iter().map(|&(v, _)| v).collect();
            for i in 0..l.nrows() {
                let Some(x) = lc.get(i).as_number_promoting() else {
                    continue;
                };
                if x.is_nan() {
                    continue;
                }
                let range = match k0 {
                    // l < r  → right values strictly greater than x
                    FunKind::Lt => keys.partition_point(|&v| v <= x)..keys.len(),
                    FunKind::Le => keys.partition_point(|&v| v < x)..keys.len(),
                    // l > r  → right values strictly less than x
                    FunKind::Gt => 0..keys.partition_point(|&v| v < x),
                    FunKind::Ge => 0..keys.partition_point(|&v| v <= x),
                    _ => unreachable!(),
                };
                if lidx.len() + range.len() > cap {
                    return Err(row_cap_exceeded(cap));
                }
                for k in range {
                    lidx.push(i as u32);
                    ridx.push(rvals[k].1);
                    if lidx.len().is_multiple_of(POLL_STRIDE) {
                        meter.poll()?;
                    }
                }
            }
        }
        FunKind::Ne => {
            // Rare; nested loop.
            let mut scanned = 0usize;
            for i in 0..l.nrows() {
                for j in 0..r.nrows() {
                    scanned += 1;
                    if scanned.is_multiple_of(POLL_STRIDE) {
                        meter.poll()?;
                    }
                    if funs::compare_with(FunKind::Ne, &lc.get(i), &rc.get(j)) {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j as u32);
                    }
                }
            }
        }
        other => {
            return Err(EvalError::new(
                ErrorCode::XPST0017,
                format!("unsupported theta-join predicate {other:?}"),
            ))
        }
    }
    // Residual predicates filter the candidate pairs.
    if pred.len() > 1 {
        let rest: Vec<_> = pred[1..]
            .iter()
            .map(|&(lcn, k, rcn)| (l.col(lcn), k, r.col(rcn)))
            .collect();
        let mut flidx = Vec::new();
        let mut fridx = Vec::new();
        'pair: for p in 0..lidx.len() {
            for (lcn, k, rcn) in &rest {
                if !funs::compare_with(*k, &lcn.get(lidx[p] as usize), &rcn.get(ridx[p] as usize)) {
                    continue 'pair;
                }
            }
            flidx.push(lidx[p]);
            fridx.push(ridx[p]);
        }
        lidx = flidx;
        ridx = fridx;
    }
    Ok(join_output(l, r, lidx, ridx, vec))
}

pub(crate) fn eval_difference(l: &Table, r: &Table, on: &[(Col, Col)], vec: bool) -> Table {
    let rcols: Vec<_> = on.iter().map(|&(_, rc)| r.col(rc)).collect();
    let keys: std::collections::HashSet<Vec<GroupKey>> = (0..r.nrows())
        .map(|j| rcols.iter().map(|c| c.get(j).group_key()).collect())
        .collect();
    let lcols: Vec<_> = on.iter().map(|&(lc, _)| l.col(lc)).collect();
    let idx: Vec<u32> = (0..l.nrows())
        .filter(|&i| {
            let key: Vec<GroupKey> = lcols.iter().map(|c| c.get(i).group_key()).collect();
            !keys.contains(&key)
        })
        .map(|i| i as u32)
        .collect();
    if vec {
        l.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        l.gather(&idx)
    }
}
