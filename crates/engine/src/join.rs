//! Join-family kernels: cross, equi-join, theta-join and difference,
//! plus the hashing machinery they (and the grouping kernels) share.
//!
//! A join emits its matches as one pair stream — left rows in order,
//! each with its right matches ascending — whichever kernel finds them.
//! The equi-join kernels push through one [`PairSink`]:
//!
//! * integer keys whose build (right) side is dense and never repeats —
//!   the map joins loop-lifting puts over a numbered relation — gather:
//!   one slot a key, one read a probe row, at most one pair a probe row;
//! * other integer keys sorted on both sides (`#`-numbered and `iter`
//!   columns) merge linearly, with no index — and a node column joined to
//!   a node column is a pair of integer columns ([`key_view`]) to these
//!   kernels and the next;
//! * other integer keys probe an [`IntJoinIndex`]: a dense domain — the
//!   unsorted rank column `%` produces — is addressed directly by
//!   `key − lo`, a sparse one hashes key → group;
//! * item keys (the value joins) hash borrowed keys into the same
//!   [`Csr`] layout;
//! * the `vec == false` reference arm keeps the per-row map of `Vec`s.
//!
//! The band join (`⋈θ` over `<`, `≤`, `>`, `≥`) knows every left row's
//! match count before it writes a pair, and fills the stream slot by
//! slot ([`band_join_pairs`]); `≠` is a nested loop, already in order.
//!
//! The batch output shares each input's columns behind a selection
//! vector, and a side the join keeps whole and in order passes through
//! as it is: a gather whose every probe row matches writes no left rows.

use crate::column::Column;
use crate::dense::{dense_range, Csr};
use crate::eval::{key_view, row_cap_exceeded, EvalError, POLL_STRIDE};
use crate::funs;
use crate::item::{GroupKey, Item};
use crate::table::{ColView, Table};
use exrquy_algebra::{Col, FunKind};
use exrquy_diag::{BudgetMeter, ErrorCode};
use exrquy_xml::NodeId;
use std::borrow::Cow;
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

type FastState = std::hash::BuildHasherDefault<FastHasher>;

pub(crate) type FastMap<K, V> = HashMap<K, V, FastState>;

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
        (Column::Node(v), None) => {
            for (r, &n) in v.iter().enumerate() {
                f(r, RefKey::Node(n));
            }
        }
        (Column::Node(v), Some(s)) => {
            for (r, &p) in s.iter().enumerate() {
                f(r, RefKey::Node(v[p as usize]));
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

/// Matched (left, right) row pairs under construction — the one place a
/// join enforces the row cap and polls the meter. Skewed keys make the
/// match count quadratic in the worst case, so the budget is checked at
/// each push, and every [`POLL_STRIDE`] pairs a cancellation or deadline
/// interrupts the expansion.
struct PairSink<'m> {
    lidx: Vec<u32>,
    ridx: Vec<u32>,
    /// Set by [`gather`](Self::gather) when every left row found its one
    /// pair: `lidx` is then unwritten, the left rows being all of them.
    left_all: bool,
    cap: usize,
    meter: &'m BudgetMeter,
}

impl<'m> PairSink<'m> {
    fn new(meter: &'m BudgetMeter) -> Self {
        PairSink {
            lidx: Vec::new(),
            ridx: Vec::new(),
            left_all: false,
            cap: meter.op_row_cap(),
            meter,
        }
    }

    #[inline]
    fn push(&mut self, i: u32, j: u32) -> Result<(), EvalError> {
        self.admit()?;
        self.lidx.push(i);
        self.ridx.push(j);
        self.poll()
    }

    /// The row cap, checked before each pair.
    #[inline]
    fn admit(&self) -> Result<(), EvalError> {
        if self.ridx.len() >= self.cap {
            return Err(row_cap_exceeded(self.cap));
        }
        Ok(())
    }

    /// The meter, polled after every [`POLL_STRIDE`]th pair.
    #[inline]
    fn poll(&self) -> Result<(), EvalError> {
        if self.ridx.len().is_multiple_of(POLL_STRIDE) {
            self.meter.poll()?;
        }
        Ok(())
    }

    /// Left row `i` paired with each of `matches`, in the order given.
    #[inline]
    fn push_matches(&mut self, i: usize, matches: &[u32]) -> Result<(), EvalError> {
        for &j in matches {
            self.push(i as u32, j)?;
        }
        Ok(())
    }

    /// Left rows `0..n` each paired with right row `find(i)`, if any: at
    /// most one pair a left row, so the output is reserved once. The row
    /// cap and the poll fall at the same pairs as [`push`](Self::push)'s.
    /// `lidx` is written only from the first unmatched left row on; when
    /// every left row matches it stays empty and the left input passes
    /// through.
    fn gather(&mut self, n: usize, find: impl Fn(usize) -> Option<u32>) -> Result<(), EvalError> {
        self.ridx.reserve(n.min(self.cap));
        let mut all = true;
        for i in 0..n {
            let Some(j) = find(i) else {
                if all {
                    all = false;
                    self.lidx.reserve(self.ridx.capacity());
                    self.lidx.extend(0..i as u32);
                }
                continue;
            };
            self.admit()?;
            if !all {
                self.lidx.push(i as u32);
            }
            self.ridx.push(j);
            self.poll()?;
        }
        self.left_all = all;
        Ok(())
    }

    /// The rows the pairs keep of each side.
    fn into_rows(self) -> (Rows, Rows) {
        let left = if self.left_all {
            Rows::All
        } else {
            Rows::Picked(self.lidx)
        };
        (left, Rows::Picked(self.ridx))
    }
}

/// The rows a join keeps of one input, in output order.
enum Rows {
    /// Every row, in order: the input passes through as it is.
    All,
    Picked(Vec<u32>),
}

/// Join index over keys hashed to group ids (numbered as first met),
/// the groups' rows laid out as a [`Csr`].
struct HashedIndex<K, S> {
    ids: HashMap<K, u32, S>,
    csr: Csr,
}

impl<K: std::hash::Hash + Eq, S: std::hash::BuildHasher + Default> HashedIndex<K, S> {
    /// `feed` hands over the build side's keys, one per row in row order.
    fn build(nrows: usize, feed: impl FnOnce(&mut dyn FnMut(K))) -> Self {
        let mut ids: HashMap<K, u32, S> = HashMap::default();
        let mut gids: Vec<u32> = Vec::with_capacity(nrows);
        feed(&mut |k| {
            let next = ids.len() as u32;
            gids.push(*ids.entry(k).or_insert(next));
        });
        let csr = Csr::build(ids.len(), 0..gids.len() as u32, |j| {
            gids[j as usize] as usize
        });
        HashedIndex { ids, csr }
    }

    /// Build rows whose key equals `key`, ascending.
    #[inline]
    fn matches(&self, key: &K) -> &[u32] {
        self.ids
            .get(key)
            .map_or(&[], |&g| self.csr.group(g as usize))
    }
}

/// Join index over the build side's integer keys. Loop-lifted plans join
/// on `%`/`#`/`iter`/`pos` columns, whose values are dense by
/// construction: those are addressed directly by `key − lo`. Dense keys
/// that never repeat — the map joins of rules LOC/BIND, over a key of a
/// numbered relation — need no groups: a slot a key holds its one build
/// row, and the probe is a gather. A sparse domain hashes into the CSR
/// layout (with the standard library's keyed hasher: sparse integers are
/// values out of the documents).
enum IntJoinIndex {
    /// Slot `key − lo` holds the key's build row + 1, or 0 for none.
    Unique {
        lo: i64,
        slots: Vec<u32>,
    },
    Direct {
        lo: i64,
        span: u64,
        csr: Csr,
    },
    Hashed(HashedIndex<i64, std::hash::RandomState>),
}

impl IntJoinIndex {
    /// The index over the build side's `keys` — or `None` when both sides
    /// are `sorted` and the keys are not both dense and unique: the linear
    /// merge takes those, with no index at all. `sorted` is asked only
    /// when the gather is out, so a unique build key scans no side twice.
    fn build(keys: &[i64], sorted: impl FnOnce() -> bool) -> Option<IntJoinIndex> {
        let Some((lo, span)) = dense_range(keys) else {
            return (!sorted()).then(|| {
                IntJoinIndex::Hashed(HashedIndex::build(keys.len(), |push| {
                    keys.iter().for_each(|&k| push(k))
                }))
            });
        };
        // Uniqueness shows while the slots fill: the first repeated key
        // falls back to the groups.
        let mut slots = vec![0u32; span as usize + 1];
        let unique = keys.iter().zip(1..).all(|(&k, row)| {
            let slot = &mut slots[k.wrapping_sub(lo) as usize];
            std::mem::replace(slot, row) == 0
        });
        if unique {
            return Some(IntJoinIndex::Unique { lo, slots });
        }
        (!sorted()).then(|| IntJoinIndex::Direct {
            lo,
            span,
            csr: Csr::build(span as usize + 1, 0..keys.len() as u32, |j| {
                keys[j as usize].wrapping_sub(lo) as usize
            }),
        })
    }

    /// Every probe key's build rows, ascending, into `out`, probe rows in
    /// order; keys outside the build side's range simply miss.
    fn probe(&self, lv: &[i64], out: &mut PairSink) -> Result<(), EvalError> {
        match self {
            // `key < lo` wraps to an offset far above any slot.
            IntJoinIndex::Unique { lo, slots } => out.gather(lv.len(), |i| {
                let slot = slots.get(lv[i].wrapping_sub(*lo) as usize)?;
                slot.checked_sub(1)
            }),
            IntJoinIndex::Direct { lo, span, csr } => {
                for (i, &k) in lv.iter().enumerate() {
                    let off = k.wrapping_sub(*lo) as u64;
                    if off <= *span {
                        out.push_matches(i, csr.group(off as usize))?;
                    }
                }
                Ok(())
            }
            IntJoinIndex::Hashed(index) => {
                for (i, k) in lv.iter().enumerate() {
                    out.push_matches(i, index.matches(k))?;
                }
                Ok(())
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
    out: &mut PairSink,
) -> Result<(), EvalError> {
    let index: HashedIndex<RefKey<'a>, FastState> =
        HashedIndex::build(rc.len(), |push| for_each_key(rc, |_, k| push(k)));
    let mut res = Ok(());
    for_each_key(lc, |i, k| {
        if res.is_ok() {
            res = out.push_matches(i, index.matches(&k));
        }
    });
    res
}

/// Reference equi-join over per-row owned keys: the `vec == false`
/// body the batch kernels are differentially tested against.
fn reference_join<K: std::hash::Hash + Eq>(
    lkeys: impl Iterator<Item = K>,
    rkeys: impl Iterator<Item = K>,
    out: &mut PairSink,
) -> Result<(), EvalError> {
    let mut index: HashMap<K, Vec<u32>> = HashMap::new();
    for (j, k) in rkeys.enumerate() {
        index.entry(k).or_default().push(j as u32);
    }
    for (i, k) in lkeys.enumerate() {
        if let Some(matches) = index.get(&k) {
            out.push_matches(i, matches)?;
        }
    }
    Ok(())
}

/// The [`reference_join`] keys of a view: one owned `GroupKey` per row.
fn group_keys(c: &ColView) -> impl Iterator<Item = GroupKey> + '_ {
    (0..c.len()).map(|r| c.get(r).group_key())
}

/// Both views as integer keys ([`key_view`]) when they are of one class:
/// an integer never equals a node, whatever their keys.
fn int_keys<'a>(l: &'a ColView, r: &'a ColView) -> Option<[Cow<'a, [i64]>; 2]> {
    match (key_view(l), key_view(r)) {
        (Some((lk, lv)), Some((rk, rv))) if lk == rk => Some([lv, rv]),
        _ => None,
    }
}

/// Linear merge of two non-decreasing key runs.
fn merge_join_pairs(lv: &[i64], rv: &[i64], out: &mut PairSink) -> Result<(), EvalError> {
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
                    out.push(i as u32, j2 as u32)?;
                }
                i += 1;
            }
            j = je;
        }
    }
    Ok(())
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
    Ok(join_output(
        l,
        r,
        Rows::Picked(lidx),
        Rows::Picked(ridx),
        vec,
    ))
}

/// Assemble a join's output from the rows it keeps of each side. The
/// vectorized shape shares both inputs' columns behind two selection
/// vectors — a join emits zero copied cells — and a side whose rows are
/// all of its rows in order passes through as it is; the scalar shape
/// gathers.
fn join_output(l: &Table, r: &Table, lrows: Rows, rrows: Rows, vec: bool) -> Table {
    if vec {
        // `select_rows` composes any prior selection once per distinct
        // vector (not once per column), so a chain of joins stays one
        // indirection deep per side.
        let keep = |t: &Table, rows: Rows| match rows {
            Rows::Picked(idx) if !is_identity(&idx, t.nrows()) => t.select_rows(idx),
            _ => t.clone(),
        };
        let (lt, rt) = (keep(l, lrows), keep(r, rrows));
        let cols: Vec<(Col, ColView)> = lt.columns().iter().chain(rt.columns()).cloned().collect();
        return Table::from_views(cols, lt.nrows());
    }
    let indices = |t: &Table, rows: Rows| -> Vec<usize> {
        match rows {
            Rows::All => (0..t.nrows()).collect(),
            Rows::Picked(idx) => idx.iter().map(|&i| i as usize).collect(),
        }
    };
    let (lidx, ridx) = (indices(l, lrows), indices(r, rrows));
    let mut cols: Vec<(Col, Column)> = Vec::new();
    for (name, c) in l.columns() {
        cols.push((*name, c.gather(&lidx)));
    }
    for (name, c) in r.columns() {
        cols.push((*name, c.gather(&ridx)));
    }
    Table::new(cols)
}

/// `idx` is `0..n`.
fn is_identity(idx: &[u32], n: usize) -> bool {
    idx.len() == n && idx.iter().zip(0..).all(|(&i, p)| i == p)
}

pub(crate) fn eval_equijoin(
    l: &Table,
    r: &Table,
    lcol: Col,
    rcol: Col,
    meter: &BudgetMeter,
    vec: bool,
) -> Result<Table, EvalError> {
    let lc = l.col(lcol);
    let rc = r.col(rcol);
    let mut out = PairSink::new(meter);
    // Every kernel below emits the same pair stream — left rows in
    // order, each with its right matches ascending — so they are
    // output- and error-interchangeable.
    match int_keys(&lc, &rc) {
        // `#`-numbered and `iter` columns arrive sorted on both sides: a
        // linear merge needs no index at all (and the two sortedness
        // scans are cheap next to building one) — unless the build keys
        // are dense and unique, where the gather beats it.
        Some([lv, rv]) if vec => {
            match IntJoinIndex::build(&rv, || lv.is_sorted() && rv.is_sorted()) {
                Some(index) => index.probe(&lv, &mut out)?,
                None => merge_join_pairs(&lv, &rv, &mut out)?,
            }
        }
        Some([lv, rv]) => reference_join(lv.iter().copied(), rv.iter().copied(), &mut out)?,
        _ if vec => hash_join_pairs(&lc, &rc, &mut out)?,
        _ => reference_join(group_keys(&lc), group_keys(&rc), &mut out)?,
    }
    let (lrows, rrows) = out.into_rows();
    Ok(join_output(l, r, lrows, rrows, vec))
}

/// Band join `l k r` (`k` one of `<`, `≤`, `>`, `≥`) in the pair-stream
/// order — left rows in order, each with its right matches ascending —
/// so a `%` over its pairs finds them numbered already. Non-numeric and
/// NaN values never match.
///
/// With the right rows sorted by value (ascending for `>`/`≥`,
/// descending for `<`/`≤`), a left row's matches are a prefix of that
/// order, its length one binary search away. Every left row's slot is
/// therefore known before a pair is written, and the row cap refuses an
/// oversized total before anything is allocated. The left rows are then
/// visited by prefix length: the right rows admitted so far, kept sorted
/// by row id, grow by merging in each newly admitted run and are copied
/// into the slot of every left row they make up. The writes are
/// sequential; the cost is O(pairs + (n + m) log m).
fn band_join_pairs(
    lc: &ColView,
    rc: &ColView,
    kind: FunKind,
    out: &mut PairSink,
) -> Result<(), EvalError> {
    let number = |c: &ColView, r: usize| c.get(r).as_number_promoting().filter(|v| !v.is_nan());
    let mut right: Vec<(f64, u32)> = (0..rc.len())
        .filter_map(|j| Some((number(rc, j)?, j as u32)))
        .collect();
    let descending = matches!(kind, FunKind::Lt | FunKind::Le);
    // NaNs were filtered above, so partial_cmp cannot return None.
    right.sort_unstable_by(|a, b| {
        let o = a.0.partial_cmp(&b.0).unwrap();
        if descending {
            o.reverse()
        } else {
            o
        }
    });
    // Whether right value `v` matches left value `x`: true on a prefix
    // of `right`.
    let admits = |v: f64, x: f64| match kind {
        FunKind::Gt => v < x,
        FunKind::Ge => v <= x,
        FunKind::Lt => v > x,
        FunKind::Le => v >= x,
        _ => unreachable!("band join over {kind:?}"),
    };
    let counts: Vec<usize> = (0..lc.len())
        .map(|i| number(lc, i).map_or(0, |x| right.partition_point(|&(v, _)| admits(v, x))))
        .collect();
    let total: usize = counts.iter().sum();
    if total > out.cap {
        return Err(row_cap_exceeded(out.cap));
    }
    let starts: Vec<usize> = counts
        .iter()
        .scan(0, |next, &c| Some(std::mem::replace(next, *next + c)))
        .collect();
    let mut ridx = vec![0u32; total];
    let (mut admitted, mut run): (Vec<u32>, Vec<u32>) = Default::default();
    let mut written = 0usize;
    let by_count = Csr::build(right.len() + 1, 0..counts.len() as u32, |i| {
        counts[i as usize]
    });
    for i in by_count.into_rows() {
        let (start, c) = (starts[i as usize], counts[i as usize]);
        if c > admitted.len() {
            run.clear();
            run.extend(right[admitted.len()..c].iter().map(|&(_, j)| j));
            run.sort_unstable();
            merge_into(&mut admitted, &run);
        }
        ridx[start..start + c].copy_from_slice(&admitted);
        if (written + c) / POLL_STRIDE > written / POLL_STRIDE {
            out.meter.poll()?;
        }
        written += c;
    }
    out.lidx = Vec::with_capacity(total);
    for (i, &c) in counts.iter().enumerate() {
        out.lidx.extend(std::iter::repeat_n(i as u32, c));
    }
    out.ridx = ridx;
    Ok(())
}

/// Merge the ascending `run` into the ascending `set`, from the back,
/// in place: the two share no value.
fn merge_into(set: &mut Vec<u32>, run: &[u32]) {
    let (mut a, mut b) = (set.len(), run.len());
    set.resize(a + b, 0);
    while b > 0 {
        let w = a + b - 1;
        if a > 0 && set[a - 1] > run[b - 1] {
            set[w] = set[a - 1];
            a -= 1;
        } else {
            set[w] = run[b - 1];
            b -= 1;
        }
    }
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
    let (p0l, k0, p0r) = pred[0];
    let lc = l.col(p0l);
    let rc = r.col(p0r);
    let mut out = PairSink::new(meter);
    match k0 {
        FunKind::Eq if vec => hash_join_pairs(&lc, &rc, &mut out)?,
        FunKind::Eq => reference_join(group_keys(&lc), group_keys(&rc), &mut out)?,
        FunKind::Lt | FunKind::Le | FunKind::Gt | FunKind::Ge => {
            band_join_pairs(&lc, &rc, k0, &mut out)?
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
                        // Polled per scanned pair above, not per emitted one.
                        if out.lidx.len() >= out.cap {
                            return Err(row_cap_exceeded(out.cap));
                        }
                        out.lidx.push(i as u32);
                        out.ridx.push(j as u32);
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
    let PairSink {
        mut lidx, mut ridx, ..
    } = out;
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
    Ok(join_output(
        l,
        r,
        Rows::Picked(lidx),
        Rows::Picked(ridx),
        vec,
    ))
}

pub(crate) fn eval_difference(l: &Table, r: &Table, on: &[(Col, Col)], vec: bool) -> Table {
    // Vectorized: one integer or node key column a side (`\ iter=iter1`,
    // the empty-sequence complement of every loop-lifted aggregate)
    // probes an integer set — no key vector per row. Integers compare
    // exactly here, where the reference body below folds them through
    // `GroupKey::Num` (f64): the arms can differ only beyond ±2^53, the
    // caveat `%‖part` over a dense `Int` partition already carries.
    if let ([(lc, rc)], true) = (on, vec) {
        if let Some([lv, rv]) = int_keys(&l.col(*lc), &r.col(*rc)) {
            let keys: std::collections::HashSet<i64, FastState> = rv.iter().copied().collect();
            let keep = (0..lv.len() as u32).filter(|&i| !keys.contains(&lv[i as usize]));
            return l.select_rows(keep.collect());
        }
    }
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

#[cfg(test)]
mod tests {
    //! The batch equi-join arms against the `vec == false` reference
    //! body: identical `(lidx, ridx)` sequences, identical errors.

    use super::*;
    use exrquy_diag::{CancellationToken, ExecutionBudget};
    use exrquy_xml::rng::SmallRng;
    use std::sync::Arc;

    fn meter(max_rows: Option<usize>, cancelled: bool) -> BudgetMeter {
        let budget = ExecutionBudget {
            max_rows_per_op: max_rows,
            ..ExecutionBudget::default()
        };
        let token = CancellationToken::new();
        if cancelled {
            token.cancel();
        }
        BudgetMeter::new(budget, Some(token))
    }

    type Pairs = Result<(Vec<i64>, Vec<i64>), (ErrorCode, String)>;

    /// Every placement of the two inputs: dense, or behind a selection
    /// vector, on either side.
    const BEHIND: [[bool; 2]; 4] = [[false, false], [true, false], [false, true], [true, true]];

    /// The join's inputs: a key and a row-id column a side. A side
    /// `behind` a selection vector keeps its rows reversed among decoy
    /// rows (key 0, id −1) in the physical columns.
    fn sides(lk: &[i64], rk: &[i64], behind: [bool; 2]) -> [Table; 2] {
        let side = |keys: &[i64], key: Col, id: Col, behind: bool| {
            let n = keys.len();
            if !behind {
                let ids = Column::Int((0..n as i64).collect());
                return Table::new(vec![(key, Column::Int(keys.to_vec())), (id, ids)]);
            }
            let phys = |r: usize| 2 * (n - 1 - r) + 1;
            let (mut kp, mut ip) = (vec![0; 2 * n], vec![-1; 2 * n]);
            for (r, &k) in keys.iter().enumerate() {
                kp[phys(r)] = k;
                ip[phys(r)] = r as i64;
            }
            Table::new(vec![(key, Column::Int(kp)), (id, Column::Int(ip))])
                .select_rows((0..n).map(|r| phys(r) as u32).collect())
        };
        [
            side(lk, Col::ITER, Col::POS, behind[0]),
            side(rk, Col::ITER1, Col::POS1, behind[1]),
        ]
    }

    /// The join's pair stream, read back through a row-id column on
    /// each side.
    fn pairs(lk: &[i64], rk: &[i64], vec: bool, meter: &BudgetMeter) -> Pairs {
        pairs_of(&sides(lk, rk, [false; 2]), vec, meter)
    }

    fn pairs_of([l, r]: &[Table; 2], vec: bool, meter: &BudgetMeter) -> Pairs {
        match eval_equijoin(l, r, Col::ITER, Col::ITER1, meter, vec) {
            Ok(t) => Ok((
                t.col(Col::POS).to_int_vec().unwrap(),
                t.col(Col::POS1).to_int_vec().unwrap(),
            )),
            Err(e) => Err((e.code, e.message)),
        }
    }

    /// Both arms agree with every side dense or behind a selection
    /// vector; the pair count.
    fn assert_arms_agree(lk: &[i64], rk: &[i64]) -> usize {
        let m = meter(None, false);
        let batch = pairs(lk, rk, true, &m);
        for behind in BEHIND {
            let inputs = sides(lk, rk, behind);
            let reference = pairs_of(&inputs, false, &m);
            assert_eq!(
                pairs_of(&inputs, true, &m),
                reference,
                "l={lk:?} r={rk:?} {behind:?}"
            );
            assert_eq!(batch, reference);
        }
        batch.unwrap().0.len()
    }

    /// Which sides the batch join passes through as they came — the
    /// output's views are the input's own — with the inputs `behind`.
    fn passes_through(lk: &[i64], rk: &[i64], behind: [bool; 2]) -> [bool; 2] {
        let [l, r] = sides(lk, rk, behind);
        let t = eval_equijoin(&l, &r, Col::ITER, Col::ITER1, &meter(None, false), true).unwrap();
        let same = |a: ColView, b: ColView| {
            Arc::ptr_eq(a.data(), b.data())
                && a.sel().map(<[u32]>::as_ptr) == b.sel().map(<[u32]>::as_ptr)
        };
        [
            same(t.col(Col::POS), l.col(Col::POS)),
            same(t.col(Col::POS1), r.col(Col::POS1)),
        ]
    }

    fn shuffled(rng: &mut SmallRng, mut v: Vec<i64>) -> Vec<i64> {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..i + 1));
        }
        v
    }

    /// The integer arms of the batch equi-join.
    #[derive(Debug, PartialEq)]
    enum Arm {
        Gather,
        Direct,
        Hashed,
        Merge,
    }

    /// The arm the batch join of these keys takes.
    fn arm(lk: &[i64], rk: &[i64]) -> Arm {
        match IntJoinIndex::build(rk, || lk.is_sorted() && rk.is_sorted()) {
            Some(IntJoinIndex::Unique { .. }) => Arm::Gather,
            Some(IntJoinIndex::Direct { .. }) => Arm::Direct,
            Some(IntJoinIndex::Hashed(_)) => Arm::Hashed,
            None => Arm::Merge,
        }
    }

    #[test]
    fn dense_permutations_join_by_direct_address() {
        let mut rng = SmallRng::seed_from_u64(1);
        let l = shuffled(&mut rng, (1..=1000).collect());
        let r = shuffled(&mut rng, (1..=1000).collect());
        assert_eq!(arm(&l, &r), Arm::Gather);
        assert_eq!(assert_arms_agree(&l, &r), 1000);
    }

    #[test]
    fn duplicates_gaps_and_negative_lo() {
        let mut rng = SmallRng::seed_from_u64(2);
        for lo in [-500i64, 0, 7] {
            // Even offsets only (gaps), each about three times (duplicates).
            let keys = |rng: &mut SmallRng, n: usize| -> Vec<i64> {
                (0..n).map(|_| lo + 2 * rng.gen_range(0i64..100)).collect()
            };
            let (l, r) = (keys(&mut rng, 300), keys(&mut rng, 300));
            assert_eq!(arm(&l, &r), Arm::Direct);
            assert!(assert_arms_agree(&l, &r) > 300);
        }
    }

    #[test]
    fn single_row_and_empty_sides() {
        assert_eq!(assert_arms_agree(&[5], &[5]), 1);
        assert_eq!(assert_arms_agree(&[5], &[6]), 0);
        assert_eq!(assert_arms_agree(&[], &[3, 1, 2]), 0);
        assert_eq!(assert_arms_agree(&[3, 1, 2], &[]), 0);
        assert_eq!(assert_arms_agree(&[], &[]), 0);
    }

    #[test]
    fn sparse_keys_take_the_hashed_fallback() {
        let mut rng = SmallRng::seed_from_u64(3);
        let keys = |rng: &mut SmallRng| -> Vec<i64> {
            (0..400)
                .map(|_| rng.gen_range(0i64..150) * 1_000_003)
                .collect()
        };
        let (l, r) = (keys(&mut rng), keys(&mut rng));
        assert_eq!(arm(&l, &r), Arm::Hashed);
        assert!(assert_arms_agree(&l, &r) > 400);
    }

    #[test]
    fn extreme_keys_neither_overflow_nor_allocate_their_span() {
        let r = [i64::MAX, 0, i64::MIN, 0, i64::MAX];
        let l = [i64::MIN, 1, i64::MAX, 0, -1];
        assert_eq!(arm(&l, &r), Arm::Hashed);
        assert_eq!(assert_arms_agree(&l, &r), 1 + 2 + 2);
        // A dense run at either end of the domain is still dense.
        let top: Vec<i64> = (0..100).map(|i| i64::MAX - (i * 7) % 100).collect();
        let bottom: Vec<i64> = (0..100).map(|i| i64::MIN + (i * 7) % 100).collect();
        assert_eq!(arm(&bottom, &top), Arm::Gather);
        assert_eq!(arm(&top, &bottom), Arm::Gather);
        assert_eq!(assert_arms_agree(&bottom, &top), 0);
        assert_eq!(assert_arms_agree(&top, &bottom), 0);
        assert_eq!(assert_arms_agree(&top, &top), 100);
    }

    #[test]
    fn probe_keys_outside_the_build_range_miss() {
        let r = [12, 10, 11, 10];
        let l = [9, 13, 10, i64::MIN, i64::MAX, 12, -10, 10 + (1 << 40)];
        assert_eq!(arm(&l, &r), Arm::Direct);
        assert_eq!(assert_arms_agree(&l, &r), 3);
    }

    #[test]
    fn every_probe_row_matching_passes_the_probe_side_through() {
        let mut rng = SmallRng::seed_from_u64(7);
        let r = shuffled(&mut rng, (0..1000).collect());
        // Repeated probe keys, every one of them on the build side.
        let l: Vec<i64> = (0..3000).map(|_| rng.gen_range(0i64..1000)).collect();
        assert_eq!(arm(&l, &r), Arm::Gather);
        let total = assert_arms_agree(&l, &r);
        assert_eq!(total, 3000);
        for behind in BEHIND {
            assert_eq!(passes_through(&l, &r, behind), [true, false], "{behind:?}");
        }
        for cap in [0, 1, total / 2, total - 1, total, total + 1] {
            let m = meter(Some(cap), false);
            assert_eq!(
                pairs(&l, &r, true, &m),
                pairs(&l, &r, false, &m),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn probe_keys_that_miss_or_fall_outside_the_range_select_both_sides() {
        let mut rng = SmallRng::seed_from_u64(8);
        // Even keys only: the odd ones miss inside [lo, hi].
        let r = shuffled(&mut rng, (0..500).map(|k| 2 * k).collect());
        let mut l: Vec<i64> = (0..1500).map(|_| rng.gen_range(-20i64..1020)).collect();
        l.extend([i64::MIN, i64::MAX, 998, 1000, -1, 0]);
        for l in [&l[..], &l[1..], &[i64::MAX, 4, 4][..], &[4, 4, 3][..]] {
            assert_eq!(arm(l, &r), Arm::Gather);
            let total = assert_arms_agree(l, &r);
            assert!(total > 0 && total < l.len());
            for behind in BEHIND {
                assert_eq!(passes_through(l, &r, behind), [false, false]);
            }
            for cap in [0, 1, total / 2, total - 1, total, total + 1] {
                let m = meter(Some(cap), false);
                assert_eq!(pairs(l, &r, true, &m), pairs(l, &r, false, &m), "cap {cap}");
            }
        }
    }

    #[test]
    fn gathered_rows_in_build_order_pass_the_build_side_through() {
        let mut rng = SmallRng::seed_from_u64(9);
        // Sorted unique dense keys on both sides take the gather, not the
        // merge; so does a probe side that repeats an unsorted build side.
        let sorted: Vec<i64> = (10..1010).collect();
        let unsorted = shuffled(&mut rng, sorted.clone());
        for keys in [&sorted, &unsorted] {
            assert_eq!(arm(keys, keys), Arm::Gather);
            assert_eq!(assert_arms_agree(keys, keys), 1000);
            for behind in BEHIND {
                assert_eq!(passes_through(keys, keys, behind), [true, true]);
            }
        }
        // The build rows in order, but not all of them: a selection.
        assert_eq!(
            passes_through(&sorted[..999], &sorted, [false; 2]),
            [true, false]
        );
        assert_eq!(
            passes_through(&unsorted, &sorted, [false; 2]),
            [true, false]
        );
    }

    #[test]
    fn a_build_key_repeated_at_the_last_row_falls_back() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut r = shuffled(&mut rng, (0..500).collect());
        r.push(r[17]);
        let mut l = shuffled(&mut rng, (-10..510).collect());
        assert_eq!(arm(&l, &r[..500]), Arm::Gather);
        assert_eq!(arm(&l, &r), Arm::Direct);
        assert_eq!(assert_arms_agree(&l, &r), 501);
        // Sorted on both sides, the fallback is the merge.
        l.sort_unstable();
        r.sort_unstable();
        assert_eq!(arm(&l, &r), Arm::Merge);
        assert_eq!(assert_arms_agree(&l, &r), 501);
    }

    #[test]
    fn row_cap_trips_at_the_same_pair() {
        let mut rng = SmallRng::seed_from_u64(4);
        let l: Vec<i64> = (0..60).map(|_| rng.gen_range(0i64..6)).collect();
        let r: Vec<i64> = (0..60).map(|_| rng.gen_range(0i64..6)).collect();
        let total = assert_arms_agree(&l, &r);
        for cap in [0, 1, total / 2, total - 1, total, total + 1] {
            let m = meter(Some(cap), false);
            let batch = pairs(&l, &r, true, &m);
            assert_eq!(batch, pairs(&l, &r, false, &m), "cap {cap}");
            match batch {
                Ok((li, _)) => assert!(li.len() == total && cap >= total),
                Err((code, _)) => assert!(code == ErrorCode::EXRQ0001 && cap < total),
            }
        }
    }

    #[test]
    fn cancellation_trips_at_the_same_poll() {
        let mut rng = SmallRng::seed_from_u64(5);
        let m = meter(None, true);
        // One pair short of the first poll: the cancelled token is never
        // looked at.
        let n = POLL_STRIDE as i64 - 1;
        let (l, r) = (
            shuffled(&mut rng, (0..n).collect()),
            shuffled(&mut rng, (0..n).collect()),
        );
        let batch = pairs(&l, &r, true, &m);
        assert_eq!(batch.as_ref().map(|p| p.0.len()), Ok(POLL_STRIDE - 1));
        assert_eq!(batch, pairs(&l, &r, false, &m));
        // One more pair reaches it, on both arms; a row cap one below
        // the stride wins over it, on both arms.
        let (l, r) = (
            shuffled(&mut rng, (0..=n).collect()),
            shuffled(&mut rng, (0..=n).collect()),
        );
        for (m, code) in [
            (&m, ErrorCode::EXRQ0002),
            (&meter(Some(POLL_STRIDE - 1), true), ErrorCode::EXRQ0001),
        ] {
            let batch = pairs(&l, &r, true, m);
            assert_eq!(batch.as_ref().map_err(|e| e.0), Err(code));
            assert_eq!(batch, pairs(&l, &r, false, m));
        }
    }

    const BANDS: [FunKind; 4] = [FunKind::Lt, FunKind::Le, FunKind::Gt, FunKind::Ge];

    /// The band join's inputs: an item key and an integer second key a
    /// side, the row ids in `POS` / `POS1`.
    fn band_sides(l: &[(Item, i64)], r: &[(Item, i64)]) -> [Table; 2] {
        let side = |rows: &[(Item, i64)], key: Col, second: Col, id: Col| {
            Table::new(vec![
                (
                    key,
                    Column::Item(rows.iter().map(|(k, _)| k.clone()).collect()),
                ),
                (second, Column::Int(rows.iter().map(|&(_, s)| s).collect())),
                (id, Column::Int((0..rows.len() as i64).collect())),
            ])
        };
        [
            side(l, Col::ITEM1, Col::ITER, Col::POS),
            side(r, Col::ITEM2, Col::ITER1, Col::POS1),
        ]
    }

    /// `⋈θ` over `ITEM1 kind ITEM2`, and `ITER ≤ ITER1` when `residual`.
    fn band_pairs(
        sides: &[Table; 2],
        kind: FunKind,
        residual: bool,
        vec: bool,
        m: &BudgetMeter,
    ) -> Pairs {
        let mut pred = vec![(Col::ITEM1, kind, Col::ITEM2)];
        if residual {
            pred.push((Col::ITER, FunKind::Le, Col::ITER1));
        }
        match eval_thetajoin(&sides[0], &sides[1], &pred, m, vec) {
            Ok(t) => Ok((
                t.col(Col::POS).to_int_vec().unwrap(),
                t.col(Col::POS1).to_int_vec().unwrap(),
            )),
            Err(e) => Err((e.code, e.message)),
        }
    }

    /// The nested loop: left rows in order, each with its right matches
    /// ascending; a non-numeric or NaN value matches nothing.
    fn band_model(
        l: &[(Item, i64)],
        r: &[(Item, i64)],
        kind: FunKind,
        residual: bool,
    ) -> (Vec<i64>, Vec<i64>) {
        let num = |it: &Item| it.as_number_promoting().filter(|v| !v.is_nan());
        let mut want = (Vec::new(), Vec::new());
        for (i, (a, sa)) in l.iter().enumerate() {
            for (j, (b, sb)) in r.iter().enumerate() {
                let Some((x, v)) = num(a).zip(num(b)) else {
                    continue;
                };
                let band = match kind {
                    FunKind::Lt => x < v,
                    FunKind::Le => x <= v,
                    FunKind::Gt => x > v,
                    _ => x >= v,
                };
                if band && (!residual || sa <= sb) {
                    want.0.push(i as i64);
                    want.1.push(j as i64);
                }
            }
        }
        want
    }

    /// Small integers with repeats on both sides, doubles, NaN, and
    /// strings that do and do not parse as numbers.
    fn band_rows(rng: &mut SmallRng, n: usize) -> Vec<(Item, i64)> {
        (0..n)
            .map(|_| {
                let key = match rng.gen_range(0u32..10) {
                    0 => Item::Dbl(f64::NAN),
                    1 => Item::str("abc"),
                    2 => Item::str(&rng.gen_range(-5i64..15).to_string()),
                    3 => Item::Dbl(rng.gen_range(-50i64..150) as f64 / 10.0),
                    _ => Item::Int(rng.gen_range(-5i64..15)),
                };
                (key, rng.gen_range(0i64..4))
            })
            .collect()
    }

    #[test]
    fn band_pairs_come_in_nested_loop_order() {
        let mut rng = SmallRng::seed_from_u64(11);
        let m = meter(None, false);
        for (nl, nr) in [(0, 0), (0, 7), (7, 0), (1, 1), (30, 40), (200, 150)] {
            let (l, r) = (band_rows(&mut rng, nl), band_rows(&mut rng, nr));
            let sides = band_sides(&l, &r);
            for kind in BANDS {
                for residual in [false, true] {
                    let want = band_model(&l, &r, kind, residual);
                    for vec in [true, false] {
                        let got = band_pairs(&sides, kind, residual, vec, &m);
                        assert_eq!(
                            got,
                            Ok(want.clone()),
                            "{kind:?} {nl}x{nr} residual {residual}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn band_row_cap_refuses_the_total_before_any_pair() {
        let mut rng = SmallRng::seed_from_u64(12);
        let (l, r) = (band_rows(&mut rng, 60), band_rows(&mut rng, 60));
        let sides = band_sides(&l, &r);
        for kind in BANDS {
            // The row cap counts the candidate pairs the residual filters.
            let total = band_model(&l, &r, kind, false).0.len();
            assert!(total > 0);
            for cap in [0, total - 1, total, total + 1] {
                let m = meter(Some(cap), false);
                for residual in [false, true] {
                    for vec in [true, false] {
                        let got = band_pairs(&sides, kind, residual, vec, &m);
                        match got {
                            Ok(_) => assert!(cap >= total, "{kind:?} cap {cap}"),
                            Err((code, _)) => assert!(code == ErrorCode::EXRQ0001 && cap < total),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn band_cancellation_trips_mid_emission() {
        let cancelled = meter(None, true);
        // Left values 1..=k each match the right values 0..k below them:
        // the stream is k(k + 1)/2 pairs long, in k slots.
        let band = |k: i64, m: &BudgetMeter| {
            let l: Vec<(Item, i64)> = (1..=k).map(|v| (Item::Int(v), 0)).collect();
            let r: Vec<(Item, i64)> = (0..k).map(|v| (Item::Int(v), 0)).collect();
            band_pairs(&band_sides(&l, &r), FunKind::Gt, false, true, m)
                .map(|p| p.0.len())
                .map_err(|e| e.0)
        };
        // 8128 pairs, one slot short of the first poll at 8192: the
        // token is never looked at.
        assert_eq!(POLL_STRIDE, 8192);
        assert_eq!(band(127, &cancelled), Ok(8128));
        // 8256 pairs cross it inside the last slot.
        assert_eq!(band(128, &cancelled), Err(ErrorCode::EXRQ0002));
        assert_eq!(band(400, &cancelled), Err(ErrorCode::EXRQ0002));
        // A row cap below the total refuses first.
        assert_eq!(
            band(128, &meter(Some(8255), true)),
            Err(ErrorCode::EXRQ0001)
        );
        assert_eq!(band(128, &meter(Some(8256), false)), Ok(8256));
    }

    /// ⋈ and `\` over dense node columns against the boxed form: the
    /// same pairs and rows, and a node never matches an integer.
    #[test]
    fn node_columns_join_and_subtract_as_their_boxed_form() {
        use exrquy_xml::NodeId;
        let mut rng = SmallRng::seed_from_u64(6);
        let m = meter(None, false);
        let nodes = |rng: &mut SmallRng, n: usize| -> Vec<NodeId> {
            (0..n)
                .map(|_| NodeId::new(rng.gen_range(0u32..3), rng.gen_range(0u32..50)))
                .collect()
        };
        let side = |key: Col, id: Col, nodes: &[NodeId], vec: bool| {
            Table::new(vec![
                (key, Column::from_nodes(nodes.to_vec(), vec)),
                (id, Column::Int((0..nodes.len() as i64).collect())),
            ])
        };
        let ids = |t: &Table, c: Col| t.col(c).to_int_vec().unwrap();
        // Repeated keys over three fragments, unsorted (hashed) and
        // sorted (merge), and unique build keys dense in one fragment,
        // some probe rows missing them (gather).
        let unique = shuffled(&mut rng, (0..200).collect());
        for want_arm in [Arm::Hashed, Arm::Merge, Arm::Gather] {
            let (mut ln, mut rn) = (nodes(&mut rng, 300), nodes(&mut rng, 200));
            match want_arm {
                Arm::Merge => {
                    ln.sort_unstable();
                    rn.sort_unstable();
                }
                Arm::Gather => {
                    rn = unique.iter().map(|&p| NodeId::new(1, p as u32)).collect();
                    ln.iter_mut().for_each(|n| n.pre *= 4);
                }
                _ => {}
            }
            let table = |vec: bool| {
                (
                    side(Col::ITEM, Col::POS, &ln, vec),
                    side(Col::ITEM1, Col::POS1, &rn, vec),
                )
            };
            let ((lb, rb), (lp, rp)) = (table(false), table(true));
            let key_of = |t: &Table, c: Col| key_view(&t.col(c)).unwrap().1.into_owned();
            let (lk, rk) = (key_of(&lp, Col::ITEM), key_of(&rp, Col::ITEM1));
            assert_eq!(arm(&lk, &rk), want_arm);
            let want = eval_equijoin(&lb, &rb, Col::ITEM, Col::ITEM1, &m, false).unwrap();
            match want_arm {
                Arm::Gather => assert!(want.nrows() > 0 && want.nrows() < 300),
                _ => assert!(want.nrows() > 300),
            }
            for (l, r) in [(&lp, &rp), (&lp, &rb), (&lb, &rp)] {
                let got = eval_equijoin(l, r, Col::ITEM, Col::ITEM1, &m, true).unwrap();
                assert_eq!(ids(&got, Col::POS), ids(&want, Col::POS));
                assert_eq!(ids(&got, Col::POS1), ids(&want, Col::POS1));
            }
            let on = [(Col::ITEM, Col::ITEM1)];
            let want = ids(&eval_difference(&lb, &rb, &on, false), Col::POS);
            assert!(!want.is_empty() && want.len() < 300);
            for (l, r) in [(&lp, &rp), (&lp, &rb), (&lb, &rp)] {
                assert_eq!(ids(&eval_difference(l, r, &on, true), Col::POS), want);
            }
            // Integers whose values are the nodes' packed keys: no match.
            let keys = key_view(&rp.col(Col::ITEM1)).unwrap().1.into_owned();
            let ints = Table::new(vec![(Col::ITEM1, Column::Int(keys))]);
            let joined = eval_equijoin(&lp, &ints, Col::ITEM, Col::ITEM1, &m, true).unwrap();
            assert_eq!(joined.nrows(), 0);
            assert_eq!(eval_difference(&lp, &ints, &on, true).nrows(), 300);
        }
    }
}
