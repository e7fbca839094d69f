//! Dense-integer kernels. Every `%`/`#`/`iter`/`pos` column holds dense
//! integers by construction, so the order-bearing operators address
//! such keys directly instead of hashing or comparing them: the density
//! probe and the counting scatter below are shared by the equi-join's
//! index (`join.rs`) and the counting-sort `%` (`sort.rs`).

/// A key domain up to this many times the row count is addressed
/// directly (4 bytes a slot).
const DENSE_SLACK: u64 = 8;

/// `(lo, hi − lo)` of an integer column whose values are dense, read off
/// the column itself in one min/max scan. `None` for an empty or sparse
/// column.
pub(crate) fn dense_range(v: &[i64]) -> Option<(i64, u64)> {
    let (&first, rest) = v.split_first()?;
    let (lo, hi) = rest
        .iter()
        .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    // hi ≥ lo, so the true difference lies in 0..2^64 and the wrapped
    // one is exactly it — `i64::MIN..=i64::MAX` does not overflow.
    let span = hi.wrapping_sub(lo) as u64;
    (span <= DENSE_SLACK.saturating_mul(v.len() as u64)).then_some((lo, span))
}

/// Rows grouped by a small-integer group id, in compressed-sparse-row
/// layout: group `g` owns `rows[offsets[g]..offsets[g + 1]]`. Two flat
/// `u32` arrays however many groups there are — where a map of per-key
/// `Vec`s pays one heap allocation per distinct key.
pub(crate) struct Csr {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Csr {
    /// Histogram → prefix sums → scatter: `rows` regrouped by `gid`
    /// (below `groups`), each group keeping the order `rows` came in —
    /// which makes one call both a join index over `0..n` and one
    /// stable pass of an LSD counting sort over a permutation.
    pub(crate) fn build(
        groups: usize,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
        gid: impl Fn(u32) -> usize,
    ) -> Csr {
        // Group g is counted two slots up, so after the prefix sums
        // `offsets[g + 1]` holds g's start and doubles as its fill
        // cursor; the scatter advances it to g's end — the start of
        // g + 1 — which leaves `offsets[g]` as the start of g.
        let mut offsets = vec![0u32; groups + 2];
        for row in rows.clone() {
            offsets[gid(row) + 2] += 1;
        }
        for g in 2..offsets.len() {
            offsets[g] += offsets[g - 1];
        }
        let mut out = vec![0u32; rows.len()];
        for row in rows {
            let cursor = &mut offsets[gid(row) + 1];
            out[*cursor as usize] = row;
            *cursor += 1;
        }
        Csr { offsets, rows: out }
    }

    /// All rows, group by group.
    pub(crate) fn into_rows(self) -> Vec<u32> {
        self.rows
    }

    #[inline]
    pub(crate) fn group(&self, g: usize) -> &[u32] {
        &self.rows[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }
}
