//! Output checking: FNV-1a-64 digests, the oracle comparison and the
//! golden files.
//!
//! Every timed operation's output is digested and compared against an
//! *oracle* digest computed once per run, outside the timed part, by the
//! reference configuration (order-aware baseline compiler, scalar engine,
//! no cost planner, one eager shard). Operations compiled in `ordered`
//! mode must match the oracle as a sequence; operations compiled in
//! `unordered` mode may permute their items, so they must match it as a
//! bag — the equivalence the differential oracle (`Session::verify`)
//! grants. The oracle digests themselves are pinned by the golden files
//! for the seeds that have one, which catches drift in the generator or
//! in code the oracle shares with the product. An admissible
//! re-ordering of an `unordered` result therefore never fails a check,
//! and a wrong answer always does.

use exrquy::ResultItem;
use std::collections::BTreeMap;
use std::path::PathBuf;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, b| (h ^ *b as u64).wrapping_mul(FNV_PRIME))
}

/// Digest of one operation's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a-64 of the serialized output.
    pub seq: u64,
    /// Order-insensitive: wrapping sum of the items' digests, mixed
    /// with the item count. Equals `seq` for outputs that are one text.
    pub bag: u64,
}

impl Digest {
    pub fn of_text(text: &str) -> Self {
        let h = fnv1a(text.as_bytes());
        Digest { seq: h, bag: h }
    }

    /// Digest a query result: `xml` is its `to_xml()` serialization.
    pub fn of_items(items: &[ResultItem], xml: &str) -> Self {
        let mut bag = fnv1a(&(items.len() as u64).to_le_bytes());
        for item in items {
            // Rendered items, as `Session::verify` compares them.
            bag = bag.wrapping_add(match item {
                ResultItem::Node(s) | ResultItem::Str(s) => fnv1a(s.as_bytes()),
                other => fnv1a(other.render().as_bytes()),
            });
        }
        Digest {
            seq: fnv1a(xml.as_bytes()),
            bag,
        }
    }
}

/// How an operation's output is held against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Match {
    /// Byte-identical serialization.
    Seq,
    /// Same items, any order.
    Bag,
}

impl Match {
    pub fn holds(self, got: Digest, expect: Digest) -> bool {
        match self {
            Match::Seq => got.seq == expect.seq,
            Match::Bag => got.bag == expect.bag,
        }
    }
}

/// Oracle digests of one seed: `workload op` → digest.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Golden(BTreeMap<String, Digest>);

impl Golden {
    /// `golden/seed<N>.txt` beside the benchmark's manifest.
    pub fn path(seed: u64) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("seed{seed}.txt"))
    }

    /// The golden file of `seed`, if one is checked in.
    pub fn load(seed: u64) -> Option<Golden> {
        let text = std::fs::read_to_string(Self::path(seed)).ok()?;
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, op, seq, bag] = f[..] else {
                panic!("malformed golden line: {line}");
            };
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("golden digest is hex");
            map.insert(
                format!("{workload} {op}"),
                Digest {
                    seq: hex(seq),
                    bag: hex(bag),
                },
            );
        }
        Some(Golden(map))
    }

    pub fn insert(&mut self, workload: &str, op: &str, d: Digest) {
        self.0.insert(format!("{workload} {op}"), d);
    }

    pub fn get(&self, workload: &str, op: &str) -> Option<Digest> {
        self.0.get(&format!("{workload} {op}")).copied()
    }

    pub fn render(&self, seed: u64) -> String {
        let mut out = format!(
            "# Oracle output digests, seed {seed}: workload op fnv1a64(serialization) bag-digest.\n\
             # Written by `perf --bless --seed {seed}`; see perfbench/README.md.\n"
        );
        for (key, d) in &self.0 {
            out.push_str(&format!("{key} {:016x} {:016x}\n", d.seq, d.bag));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bag_digest_ignores_order_but_not_content() {
        let a = [ResultItem::Int(1), ResultItem::Str("x".into())];
        let b = [ResultItem::Str("x".into()), ResultItem::Int(1)];
        let c = [ResultItem::Int(2), ResultItem::Str("x".into())];
        let (da, db, dc) = (
            Digest::of_items(&a, "1 x"),
            Digest::of_items(&b, "x 1"),
            Digest::of_items(&c, "2 x"),
        );
        assert!(Match::Bag.holds(da, db));
        assert!(!Match::Seq.holds(da, db));
        assert!(!Match::Bag.holds(da, dc));
        assert!(!Match::Bag.holds(da, Digest::of_items(&a[..1], "1")));
    }

    #[test]
    fn golden_round_trips() {
        let mut g = Golden::default();
        g.insert("w", "op", Digest { seq: 1, bag: 2 });
        let text = g.render(5);
        assert!(text.contains("w op 0000000000000001 0000000000000002"));
    }
}
