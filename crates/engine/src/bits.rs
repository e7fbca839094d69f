//! A dense bit vector backing [`Column::Bool`](crate::column::Column).
//!
//! Hand-rolled (the workspace is offline — no `bitvec` crate): 64 bits
//! per word, append-only construction, O(1) indexed reads. Predicates
//! produce these instead of boxing one [`Item::Bool`](crate::item::Item)
//! per row; a select over a dense `Bool` column walks words, not items.

/// A growable, densely packed vector of booleans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// An empty bit vector with room for `n` bits.
    pub fn with_capacity(n: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, b: bool) {
        let (w, off) = (self.len / 64, self.len % 64);
        if off == 0 {
            self.words.push(0);
        }
        if b {
            self.words[w] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Bit at `i`; panics when out of bounds (mirrors slice indexing).
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, appended to `out` in order. The
    /// word-at-a-time scan is what makes fused selects cheap: a run of 64
    /// false rows costs one comparison. (Bits past `len` are never set:
    /// `push` is the only writer.)
    pub fn extend_ones(&self, out: &mut Vec<u32>) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }

    /// Collect from a boolean iterator.
    pub fn from_iter_exact(it: impl Iterator<Item = bool>) -> Self {
        let (lo, _) = it.size_hint();
        let mut v = BitVec::with_capacity(lo);
        for b in it {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let bv = BitVec::from_iter_exact(pattern.iter().copied());
        assert_eq!(bv.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
        assert_eq!(bv.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn ones_match_scalar_scan() {
        for n in [0, 1, 63, 64, 65, 128, 300] {
            let pattern: Vec<bool> = (0..n).map(|i| (i * 31) % 5 == 0 || i == 63).collect();
            let bv = BitVec::from_iter_exact(pattern.iter().copied());
            let mut got = Vec::new();
            bv.extend_ones(&mut got);
            let want: Vec<u32> = (0..n).filter(|&i| pattern[i]).map(|i| i as u32).collect();
            assert_eq!(got, want, "length {n}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        BitVec::new().get(0);
    }
}
