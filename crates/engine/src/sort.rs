//! Order-bearing kernels: `%` (rownum) and distinct. One sorter,
//! [`sorted_perm`], serves them on the calling thread: a sortedness probe, LSD counting passes over dense
//! integer keys, and one stable comparison sort for everything else.

use crate::column::Column;
use crate::dense::{dense_range, Csr};
use crate::eval::{int_view, key_view};
use crate::item::GroupKey;
use crate::join::FastHasher;
use crate::table::{ColView, Table};
use exrquy_algebra::Col;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// One sort criterion over a table's rows. Integer columns are viewed as
/// a slice once — and node columns as the packed integers that order as
/// their ids do ([`key_view`]) — so neither the comparator nor the
/// counting passes box an `Item` or chase a selection vector per row —
/// `%` is the operator whose cost the whole paper is about: what it
/// charges must be the price of the order, not of the bookkeeping.
pub(crate) enum Key<'a> {
    Int(Cow<'a, [i64]>, bool),
    Item(&'a ColView, bool),
}

impl<'a> Key<'a> {
    pub(crate) fn of(view: &'a ColView, desc: bool) -> Key<'a> {
        match key_view(view) {
            Some((_, v)) => Key::Int(v, desc),
            None => Key::Item(view, desc),
        }
    }

    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        let (o, desc) = match self {
            Key::Int(v, desc) => (v[a].cmp(&v[b]), *desc),
            Key::Item(c, desc) => (c.get(a).sort_cmp(&c.get(b)), *desc),
        };
        if desc {
            o.reverse()
        } else {
            o
        }
    }

    /// The raw values and direction of an integer key.
    fn ints(&self) -> Option<(&[i64], bool)> {
        match self {
            Key::Int(v, desc) => Some((v, *desc)),
            Key::Item(..) => None,
        }
    }

    /// This key as counting-sort buckets, if it is a dense `Int` column.
    fn dense(&self) -> Option<DenseKey<'_>> {
        let Key::Int(v, desc) = self else {
            return None;
        };
        let (lo, span) = dense_range(v)?;
        Some(DenseKey {
            v,
            lo,
            span: span as usize,
            desc: *desc,
        })
    }
}

/// A dense integer key: `span + 1` buckets, mirrored when descending.
struct DenseKey<'a> {
    v: &'a [i64],
    lo: i64,
    span: usize,
    desc: bool,
}

impl DenseKey<'_> {
    #[inline]
    fn bucket(&self, row: u32) -> usize {
        let off = self.v[row as usize].wrapping_sub(self.lo) as usize;
        if self.desc {
            self.span - off
        } else {
            off
        }
    }
}

/// Below this many rows the comparison sort's insertion-sort regime
/// beats allocating a histogram per key.
const COUNTING_MIN_ROWS: usize = 64;

/// The stable permutation of `0..n` that orders rows by `keys`, most
/// significant first — the one sorter behind `%`. Rows with equal key tuples keep their input order. `None` when
/// that permutation is the identity, found without allocating it.
///
/// The vectorized arm probes for sortedness first: rows usually arrive
/// in key order already (the iter→seq reorder over staircase output,
/// which is produced in document order), and a stable sort of sorted
/// input is the identity. Otherwise, when every key is a dense integer
/// column — any `%`/`#`/`iter`/`pos` column is, and so are the nodes of
/// one fragment — it runs stable LSD counting passes, least significant
/// key first: O(keys · n), no comparisons. `Item` keys and sparse
/// integers take the comparison sort, as does the whole reference arm
/// (whose node columns are boxed, hence `Item` keys).
pub(crate) fn sorted_perm(n: usize, keys: &[Key], vec: bool) -> Option<Vec<u32>> {
    if vec {
        let presorted = match int_keys(keys) {
            Some(ints) => ints_in_order(n, &ints, |_| ()),
            None => (1..n).all(|r| cmp_rows(keys, r - 1, r) != Ordering::Greater),
        };
        if presorted {
            return None;
        }
    }
    Some(sort_perm(n, keys, vec))
}

/// Rows compared on every key, most significant first.
fn cmp_rows(keys: &[Key], a: usize, b: usize) -> Ordering {
    keys.iter()
        .map(|k| k.cmp_rows(a, b))
        .find(|&o| o != Ordering::Equal)
        .unwrap_or(Ordering::Equal)
}

/// The raw slices of an all-integer key tuple (the rule).
fn int_keys<'k>(keys: &'k [Key]) -> Option<Vec<(&'k [i64], bool)>> {
    keys.iter().map(Key::ints).collect()
}

/// Whether rows `0..n` are in `ints` order already, compared on the
/// slices directly, not through `Key` per value. `step(d)` sees each
/// row as the probe passes it, `d` being the most significant key on
/// which it differs from the row before: `0` for the first row,
/// `ints.len()` for a repeat.
fn ints_in_order(n: usize, ints: &[(&[i64], bool)], mut step: impl FnMut(usize)) -> bool {
    if n > 0 {
        step(0);
    }
    (1..n).all(|r| {
        let d = ints
            .iter()
            .position(|(v, _)| v[r - 1] != v[r])
            .unwrap_or(ints.len());
        step(d);
        ints.get(d)
            .is_none_or(|&(v, desc)| (v[r - 1] < v[r]) != desc)
    })
}

/// [`sorted_perm`] past its probe.
fn sort_perm(n: usize, keys: &[Key], vec: bool) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if vec && n >= COUNTING_MIN_ROWS {
        if let Some(dense) = keys.iter().map(Key::dense).collect::<Option<Vec<_>>>() {
            // A single-valued key orders nothing.
            for k in dense.iter().rev().filter(|k| k.span > 0) {
                let pass = Csr::build(k.span + 1, perm.iter().copied(), |row| k.bucket(row));
                perm = pass.into_rows();
            }
            return perm;
        }
    }
    perm.sort_by(|&a, &b| cmp_rows(keys, a as usize, b as usize));
    perm
}

pub(crate) fn eval_rownum(
    t: &Table,
    new: Col,
    order: &[exrquy_algebra::SortKey],
    part: Option<Col>,
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
                let next = |c: &mut i64| {
                    *c += 1;
                    *c
                };
                // Vectorized: a dense integer partition column (`iter`)
                // indexes its counter directly, by exact value as `%`
                // with order keys compares it (`GroupKey` folds integers
                // through f64, which differs only beyond ±2^53).
                let ints = int_view(&pc).filter(|_| vec);
                match ints.as_deref().and_then(|v| Some((v, dense_range(v)?))) {
                    Some((v, (lo, span))) => {
                        let mut counters = vec![0i64; span as usize + 1];
                        v.iter()
                            .map(|k| next(&mut counters[k.wrapping_sub(lo) as usize]))
                            .collect()
                    }
                    None => {
                        let mut counters: HashMap<GroupKey, i64> = HashMap::new();
                        (0..n)
                            .map(|r| next(counters.entry(pc.get(r).group_key()).or_insert(0)))
                            .collect()
                    }
                }
            }
        };
        return t.with_column(new, Column::Int(nums));
    }
    // The partition column is the most significant sort key.
    let views: Vec<(ColView, bool)> = part
        .map(|p| (t.col(p), false))
        .into_iter()
        .chain(order.iter().map(|k| (t.col(k.col), k.desc)))
        .collect();
    let keys: Vec<Key> = views.iter().map(|(v, desc)| Key::of(v, *desc)).collect();
    // Keys `0..groups` make the partition: a row differing from the one
    // before on any of them starts a new one.
    let groups = usize::from(part.is_some());
    let ints = int_keys(&keys).filter(|_| vec);
    // Vectorized: presorted integer keys are numbered inside the probe,
    // in one pass over the rows.
    if let Some(ints) = &ints {
        let mut nums = Vec::with_capacity(n);
        let mut rank = 0i64;
        let presorted = ints_in_order(n, ints, |d| {
            rank = if d < groups { 1 } else { rank + 1 };
            nums.push(rank);
        });
        if presorted {
            return t.with_column(new, Column::Int(nums));
        }
    }
    let idx = match ints {
        Some(_) => sort_perm(n, &keys, vec),
        None => sorted_perm(n, &keys, vec).unwrap_or_else(|| (0..n as u32).collect()),
    };
    // Dense 1,2,3,… numbering per partition, written back to row order;
    // the vectorized arm reads an integer partition key as its slice.
    let part_ints = ints.as_ref().filter(|_| groups > 0).map(|ints| ints[0].0);
    let mut nums = vec![0i64; n];
    let mut rank = 0i64;
    for (k, &row) in idx.iter().enumerate() {
        let prev = k.checked_sub(1).map(|p| idx[p] as usize);
        let same_group = prev.is_some_and(|prev| match part_ints {
            Some(v) => v[row as usize] == v[prev],
            None => part.is_none() || keys[0].cmp_rows(row as usize, prev) == Ordering::Equal,
        });
        rank = if same_group { rank + 1 } else { 1 };
        nums[row as usize] = rank;
    }
    t.with_column(new, Column::Int(nums))
}

pub(crate) fn eval_distinct(t: &Table, vec: bool) -> Table {
    let mut idx: Vec<u32> = Vec::new();
    // Vectorized: a single integer or node column (distinct over
    // loop-lifted `iter` values, typically ascending) run-dedups when
    // sorted and falls back to an integer set otherwise — no per-row
    // key vector either way. First-occurrence order is what the generic
    // scan produces too, so the reference arm stays byte-identical.
    if let ([(_, c)], true) = (t.columns(), vec) {
        if let Some((_, v)) = key_view(c) {
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

#[cfg(test)]
mod tests {
    //! The counting-sort `%` and the shared sorter against the
    //! `vec == false` comparison-sort body.

    use super::*;
    use crate::item::Item;
    use exrquy_algebra::SortKey;
    use exrquy_xml::rng::SmallRng;

    const KEYS: [Col; 3] = [Col::ITER, Col::POS, Col::ITEM];

    fn table(cols: &[Vec<i64>]) -> Table {
        Table::new(
            KEYS.iter()
                .zip(cols)
                .map(|(&c, v)| (c, Column::Int(v.clone())))
                .collect(),
        )
    }

    fn rownum(t: &Table, order: &[SortKey], part: Option<Col>, vec: bool) -> Vec<i64> {
        eval_rownum(t, Col::RES, order, part, vec)
            .col(Col::RES)
            .to_int_vec()
            .unwrap()
    }

    /// `%` agrees across both arms.
    fn assert_arms_agree(t: &Table, order: &[SortKey], part: Option<Col>) -> Vec<i64> {
        let reference = rownum(t, order, part, false);
        assert_eq!(rownum(t, order, part, true), reference);
        reference
    }

    fn counts(t: &Table, order: &[SortKey]) -> bool {
        order
            .iter()
            .all(|k| Key::of(&t.col(k.col), k.desc).dense().is_some())
    }

    fn desc(col: Col) -> SortKey {
        SortKey { col, desc: true }
    }

    /// Duplicate-heavy dense columns, unsorted.
    fn random_cols(rng: &mut SmallRng, n: usize) -> Vec<Vec<i64>> {
        [7i64, 40, 300]
            .iter()
            .map(|&domain| (0..n).map(|_| rng.gen_range(-3..domain)).collect())
            .collect()
    }

    #[test]
    fn multi_key_mixed_direction_with_and_without_partition() {
        let mut rng = SmallRng::seed_from_u64(11);
        // Below, at and well above the small-n cutoff.
        for n in [
            1,
            2,
            10,
            COUNTING_MIN_ROWS - 1,
            COUNTING_MIN_ROWS,
            65,
            700,
            6000,
        ] {
            let t = table(&random_cols(&mut rng, n));
            let order = [desc(Col::POS), SortKey::asc(Col::ITEM), desc(Col::ITER)];
            assert!(n < COUNTING_MIN_ROWS || counts(&t, &order));
            for part in [None, Some(Col::ITER)] {
                for order in [&order[..], &order[..2], &order[1..2]] {
                    let nums = assert_arms_agree(&t, order, part);
                    assert_eq!(nums.len(), n);
                }
            }
        }
    }

    #[test]
    fn equal_keys_number_in_input_order() {
        let n = 500;
        let t = table(&[vec![3; n], vec![-1; n], (0..n as i64).rev().collect()]);
        let order = [desc(Col::ITER), SortKey::asc(Col::POS)];
        let nums = assert_arms_agree(&t, &order, None);
        assert_eq!(nums, (1..=n as i64).collect::<Vec<_>>());
        // Ties on the leading keys are broken by the last key alone.
        let order = [order[0], order[1], SortKey::asc(Col::ITEM)];
        let nums = assert_arms_agree(&t, &order, None);
        assert_eq!(nums, (1..=n as i64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn presorted_keys_number_in_the_probe() {
        let mut rng = SmallRng::seed_from_u64(17);
        let order = [
            SortKey::asc(Col::ITER),
            desc(Col::POS),
            SortKey::asc(Col::ITEM),
        ];
        for n in [1, 2, 65, 3000] {
            // Rows in (iter, pos desc, item) order, duplicates included.
            let mut rows: Vec<[i64; 3]> = (0..n)
                .map(|_| [5, 9, 4].map(|domain| rng.gen_range(0i64..domain)))
                .collect();
            rows.sort_by_key(|&[i, p, t]| (i, -p, t));
            let cols: Vec<Vec<i64>> = (0..3)
                .map(|k| rows.iter().map(|r| r[k]).collect())
                .collect();
            // Out of order at the last row only: the probe gives up there
            // and the rows are sorted.
            let mut late = cols.clone();
            late[0][n - 1] = -1;
            for (cols, presorted) in [(&cols, true), (&late, n == 1)] {
                let t = table(cols);
                let views: Vec<ColView> = order.iter().map(|k| t.col(k.col)).collect();
                let keys: Vec<Key> = views
                    .iter()
                    .zip(&order)
                    .map(|(v, k)| Key::of(v, k.desc))
                    .collect();
                assert_eq!(sorted_perm(n, &keys, true).is_none(), presorted);
                assert_arms_agree(&t, &order, None);
                assert_arms_agree(&t, &order[1..], Some(Col::ITER));
            }
        }
    }

    #[test]
    fn sparse_and_item_keys_fall_back_to_the_comparison_sort() {
        let mut rng = SmallRng::seed_from_u64(12);
        let n = 5000;
        let mut cols = random_cols(&mut rng, n);
        cols[1] = cols[1].iter().map(|&v| v * 1_000_003).collect();
        cols[2][0] = i64::MIN;
        cols[2][1] = i64::MAX;
        let t = table(&cols);
        let order = [SortKey::asc(Col::POS), desc(Col::ITEM)];
        assert!(!counts(&t, &order[..1]) && !counts(&t, &order[1..]));
        assert_arms_agree(&t, &order, Some(Col::ITER));

        let strs: Vec<Item> = (0..n)
            .map(|_| Item::str(&rng.gen_range(0i64..50).to_string()))
            .collect();
        let t = t.with_column(Col::BIND, Column::Item(strs));
        let order = [desc(Col::BIND), SortKey::asc(Col::ITER)];
        assert!(!counts(&t, &order));
        assert_arms_agree(&t, &order, None);
    }

    #[test]
    fn keys_behind_a_selection_vector() {
        let mut rng = SmallRng::seed_from_u64(13);
        let t = table(&random_cols(&mut rng, 900));
        let picked = t.select_rows((0..900u32).rev().filter(|r| r % 3 != 0).collect());
        let order = [SortKey::asc(Col::ITEM), desc(Col::POS)];
        assert!(counts(&picked, &order));
        assert_arms_agree(&picked, &order, Some(Col::ITER));
    }

    #[test]
    fn unordered_rownum_counts_per_partition() {
        let mut rng = SmallRng::seed_from_u64(14);
        let mut cols = random_cols(&mut rng, 300);
        for lo in [0, -40, 1_000_003] {
            cols[0] = (0..300).map(|_| lo + rng.gen_range(0i64..9)).collect();
            let nums = assert_arms_agree(&table(&cols), &[], Some(Col::ITER));
            assert_eq!(nums.iter().filter(|&&k| k == 1).count(), 9);
        }
        // Sparse partition keys keep the hashed counters.
        cols[0] = (0..300).map(|_| rng.gen_range(0i64..9) << 40).collect();
        assert_arms_agree(&table(&cols), &[], Some(Col::ITER));
    }

    /// `%` and δ over a dense node column against the boxed form the
    /// reference arm ranks: same numbers, whichever sorter the keys take.
    #[test]
    fn node_columns_rank_and_dedup_as_their_boxed_form() {
        use exrquy_xml::NodeId;
        let mut rng = SmallRng::seed_from_u64(16);
        let n = 700;
        let ascending: Vec<NodeId> = (0..n).map(|p| NodeId::new(2, 3 * p)).collect();
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        // Duplicates, and fragments on both sides of the i64 sign bit.
        let fragments: Vec<NodeId> = (0..n)
            .map(|_| {
                let frag = [0, 1, 7, u32::MAX][rng.gen_range(0usize..4)];
                NodeId::new(frag, rng.gen_range(0u32..40))
            })
            .collect();
        let iters: Vec<i64> = (0..n).map(|_| rng.gen_range(1i64..6)).collect();
        for (nodes, dense) in [(ascending, true), (shuffled, true), (fragments, false)] {
            let table = |vec: bool| {
                Table::new(vec![
                    (Col::ITER, Column::Int(iters.clone())),
                    (Col::ITEM, Column::from_nodes(nodes.clone(), vec)),
                ])
            };
            let (boxed, packed) = (table(false), table(true));
            let behind_sel =
                |t: &Table| t.select_rows((0..n).rev().filter(|r| r % 4 != 1).collect());
            for order in [[SortKey::asc(Col::ITEM)], [desc(Col::ITEM)]] {
                assert_eq!(counts(&packed, &order), dense);
                assert!(!counts(&boxed, &order));
                for part in [None, Some(Col::ITER)] {
                    let want = rownum(&boxed, &order, part, false);
                    assert_eq!(rownum(&packed, &order, part, true), want);
                    let want = rownum(&behind_sel(&boxed), &order, part, false);
                    assert_eq!(rownum(&behind_sel(&packed), &order, part, true), want);
                }
            }
            let item_only =
                |t: &Table| Table::from_views(vec![(Col::ITEM, t.col(Col::ITEM))], n as usize);
            let kept =
                |t: Table| -> Vec<Item> { (0..t.nrows()).map(|r| t.item(Col::ITEM, r)).collect() };
            assert_eq!(
                kept(eval_distinct(&item_only(&packed), true)),
                kept(eval_distinct(&item_only(&boxed), false))
            );
            assert_eq!(
                kept(eval_distinct(&packed, true)),
                kept(eval_distinct(&boxed, false))
            );
        }
    }
}
