//! Seeded inputs. The seed feeds the XMark generator, the star corpus'
//! key assignment and the request shuffle; the program under test sees
//! only the generated documents and query texts.

use exrquy_xmark::{generate, XmarkConfig, ALL_QUERIES};
use exrquy_xml::rng::SmallRng;
use std::fmt::Write as _;

/// Input sizes. `--quick` divides every scale by 40 for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// XMark scale of the query and load workloads (≈7.4 MB, ≈540k nodes).
    pub xmark: f64,
    /// XMark scale of the served and sharded corpora.
    pub xmark_small: f64,
    /// XMark scale of the compile-only catalog.
    pub xmark_tiny: f64,
    /// Rows per big star document and distinct join keys.
    pub star_rows: usize,
    pub star_keys: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        let div = if quick { 40.0 } else { 1.0 };
        Sizes {
            xmark: 0.2 / div,
            xmark_small: 0.05 / div,
            xmark_tiny: 0.002 / div,
            star_rows: if quick { 25 } else { 1000 },
            star_keys: if quick { 5 } else { 50 },
        }
    }
}

pub fn xmark_text(scale: f64, seed: u64) -> String {
    generate(&XmarkConfig { scale, seed })
}

/// Pairs of a person's income and an open auction's initial price that
/// satisfy the join predicate of Q11 and Q12, `income > 5000 * initial`.
fn q11_pairs(xml: &str) -> u64 {
    let numbers = |open: &str, close: char| -> Vec<f64> {
        xml.match_indices(open)
            .map(|(at, _)| {
                let rest = &xml[at + open.len()..];
                let text = &rest[..rest.find(close).expect("generated value is closed")];
                text.parse().expect("generated value is a number")
            })
            .collect()
    };
    let mut initials = numbers("<initial>", '<');
    initials.sort_by(f64::total_cmp);
    numbers("income=\"", '"')
        .iter()
        .map(|income| initials.partition_point(|initial| *income > 5000.0 * initial) as u64)
        .sum()
}

/// Generator seeds tried per benchmark seed by [`steady_xmark_seed`].
const CANDIDATES: u64 = 32;

/// The generator seed of the scale-`scale` document for benchmark seed
/// `seed`: of [`CANDIDATES`] seeds derived from it, the one whose Q11
/// join size is closest to their mean, which stands for the generator's
/// expectation without this file knowing its distributions.
///
/// Q11 and Q12 are two thirds of an `xmark_ordered` pass, and their
/// work is the number of joining pairs. Only ≈8 % of the open auctions
/// can join at all, so between plain seeds the pair count swings by
/// ±20 % (337k to 501k over seeds 21–30), the pass with it (665 to
/// 978 ms), and the peak memory between two modes (130 or 170 MB): an
/// interquartile spread of 23–26 %, where the widest bound a metric may
/// carry is 25 %. Like the star corpus' key permutation, this holds the
/// size of the work fixed across seeds while everything else about the
/// document still varies.
pub fn steady_xmark_seed(scale: f64, seed: u64) -> u64 {
    let candidates: Vec<(u64, f64)> = (0..CANDIDATES)
        .map(|k| seed.wrapping_add(k << 32))
        .map(|s| (s, q11_pairs(&xmark_text(scale, s)) as f64))
        .collect();
    let mean = candidates.iter().map(|(_, pairs)| pairs).sum::<f64>() / CANDIDATES as f64;
    let off = |pairs: f64| (pairs - mean).abs();
    candidates
        .iter()
        .min_by(|a, b| off(a.1).total_cmp(&off(b.1)))
        .expect("CANDIDATES > 0")
        .0
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One skewed star document (`plan-bench`'s corpus): `rows` elements
/// named `tag`, each of `keys` join keys used equally often. The seed
/// permutes which row carries which key, so join cardinalities — and
/// with them the work — stay the same across seeds while row order and
/// hash-table layout do not.
fn star_doc(tag: &str, rows: usize, keys: usize, rng: &mut SmallRng) -> String {
    let mut assignment: Vec<usize> = (0..rows).map(|i| i % keys).collect();
    shuffle(&mut assignment, rng);
    let mut xml = String::with_capacity(rows * 24);
    xml.push_str("<doc>");
    for (i, k) in assignment.iter().enumerate() {
        let _ = write!(xml, "<{tag} k=\"k{k}\" id=\"{tag}{i}\"/>");
    }
    xml.push_str("</doc>");
    xml
}

/// The star corpus: three big relations and the tiny selective one,
/// whose two elements match keys k0 and k1 only.
pub fn star_corpus(rows: usize, keys: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57a2_c0de);
    vec![
        ("big0.xml".into(), star_doc("s", rows, keys, &mut rng)),
        ("big1.xml".into(), star_doc("r", rows, keys, &mut rng)),
        ("big2.xml".into(), star_doc("w", rows, keys, &mut rng)),
        (
            "tiny.xml".into(),
            "<doc><t k=\"k0\" id=\"t0\"/><t k=\"k1\" id=\"t1\"/></doc>".into(),
        ),
    ]
}

/// Star joins, three of them written in their *worst* clause order (the
/// selective tiny relation joined last) and one in its best as control.
pub const STAR_QUERIES: [(&str, &str); 4] = [
    (
        "star4_skewed",
        r#"fn:count(for $y in doc("big0.xml")//s
for $x in doc("big1.xml")//r where $x/@k = $y/@k
for $w in doc("big2.xml")//w where $w/@k = $y/@k
for $t in doc("tiny.xml")//t where $t/@k = $y/@k
return $t)"#,
    ),
    (
        "star3_big",
        r#"fn:count(for $y in doc("big0.xml")//s
for $x in doc("big1.xml")//r where $x/@k = $y/@k
for $w in doc("big2.xml")//w where $w/@k = $y/@k
return $w)"#,
    ),
    (
        "star3_tiny",
        r#"fn:count(for $y in doc("big0.xml")//s
for $x in doc("big1.xml")//r where $x/@k = $y/@k
for $t in doc("tiny.xml")//t where $t/@k = $y/@k
return $t)"#,
    ),
    (
        "star4_ideal",
        r#"fn:count(for $y in doc("big0.xml")//s
for $t in doc("tiny.xml")//t where $t/@k = $y/@k
for $x in doc("big1.xml")//r where $x/@k = $y/@k
for $w in doc("big2.xml")//w where $w/@k = $y/@k
return $w)"#,
    ),
];

/// The `fn:collection()` matrix: XMark's access patterns rewritten to
/// scan the whole corpus through the shard fanout (the sharded
/// differential's query set).
pub const COLLECTION_QUERIES: [(&str, &str); 10] = [
    (
        "coll_lookup",
        r#"for $b in fn:collection()//person[@id = "person0"] return $b/name/text()"#,
    ),
    (
        "coll_count_items",
        r#"for $s in fn:collection()/site return fn:count($s//item)"#,
    ),
    (
        "coll_count_sum",
        r#"fn:count(fn:collection()//description) + fn:count(fn:collection()//annotation)
       + fn:count(fn:collection()//emailaddress)"#,
    ),
    (
        "coll_value_join",
        r#"for $p in fn:collection()//people/person
       let $a := for $t in fn:collection()//closed_auctions/closed_auction
                 where $t/buyer/@person = $p/@id
                 return $t
       return <item person="{ $p/name/text() }">{ fn:count($a) }</item>"#,
    ),
    (
        "coll_filter_count",
        r#"fn:count(for $i in fn:collection()//closed_auction
                where $i/price/text() >= 40
                return $i/price)"#,
    ),
    (
        "coll_exists",
        r#"for $p in fn:collection()//person
       where fn:exists($p/homepage)
       return <has-page>{ $p/name/text() }</has-page>"#,
    ),
    (
        "coll_scan_names",
        r#"for $i in fn:collection()//item return $i/name/text()"#,
    ),
    (
        "coll_order_by",
        r#"for $p in fn:collection()//person
       order by $p/name/text() descending
       return $p/name/text()"#,
    ),
    (
        "coll_positional",
        r#"for $a in fn:collection()//open_auction
       return <first>{ $a/bidder[1]/increase/text() }</first>"#,
    ),
    (
        "coll_quantifier",
        r#"fn:count(fn:collection()//open_auction[some $b in bidder
                satisfies $b/increase/text() >= 20])"#,
    ),
];

/// Touches every fragment of a catalog: the first execution over a
/// lazily loaded one materializes all its shards.
pub const COUNT_COLLECTION: &str = "fn:count(fn:collection()//*)";

/// XMark Q1–Q20 as `("q01", text)` … `("q20", text)`.
pub fn xmark_queries() -> Vec<(String, &'static str)> {
    ALL_QUERIES
        .iter()
        .enumerate()
        .map(|(i, q)| (format!("q{:02}", i + 1), *q))
        .collect()
}

/// The top-level sections of an XMark `site` document, in document order.
const XMARK_SECTIONS: [&str; 6] = [
    "regions",
    "categories",
    "catgraph",
    "people",
    "open_auctions",
    "closed_auctions",
];

/// Split one XMark document by subtree: each top-level section becomes
/// its own `<site>`-rooted document, so `fn:collection()//x` visits the
/// same elements in the same order as `doc(...)//x` over the original.
pub fn split_xmark(xml: &str) -> Vec<(String, String)> {
    XMARK_SECTIONS
        .iter()
        .map(|section| {
            let (open, close) = (format!("<{section}>"), format!("</{section}>"));
            let start = xml.find(&open).expect("XMark section present");
            let end =
                start + xml[start..].find(&close).expect("XMark section closed") + close.len();
            (
                format!("{section}.xml"),
                format!("<site>{}</site>", &xml[start..end]),
            )
        })
        .collect()
}

/// The sharded corpus of `collection_star` and `catalog_load`: the star
/// relations, then the XMark document `xmark` split by subtree.
pub fn sharded_corpus(sizes: &Sizes, xmark: &str, seed: u64) -> Vec<(String, String)> {
    let mut docs = star_corpus(sizes.star_rows, sizes.star_keys, seed);
    docs.extend(split_xmark(xmark));
    docs
}

/// Count element start tags by scanning the text — an oracle for the
/// load operations that shares no code with the XML parser.
pub fn count_elements(xml: &str) -> usize {
    xml.as_bytes()
        .windows(2)
        .filter(|w| w[0] == b'<' && w[1].is_ascii_alphabetic())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let s = Sizes::new(true);
        let corpus = |seed| sharded_corpus(&s, &xmark_text(s.xmark_tiny, seed), seed);
        assert_eq!(corpus(3), corpus(3));
        assert_ne!(corpus(3), corpus(4));
        assert_ne!(star_corpus(25, 5, 3), star_corpus(25, 5, 4));
    }

    #[test]
    fn steady_seed_is_a_function_of_the_seed_and_nearer_the_mean_join_size() {
        let picked = steady_xmark_seed(0.02, 5);
        assert_eq!(picked, steady_xmark_seed(0.02, 5));
        assert_eq!(picked & 0xffff_ffff, 5);
        let pairs = |s| q11_pairs(&xmark_text(0.02, s)) as f64;
        let mean = (0..CANDIDATES).map(|k| pairs(5 + (k << 32))).sum::<f64>() / CANDIDATES as f64;
        assert!((pairs(picked) - mean).abs() <= (pairs(5) - mean).abs());
        assert!((pairs(picked) - mean).abs() < 0.05 * mean);
    }

    #[test]
    fn star_keys_are_balanced() {
        let docs = star_corpus(25, 5, 9);
        for k in 0..5 {
            assert_eq!(docs[0].1.matches(&format!("k=\"k{k}\"")).count(), 5);
        }
    }

    #[test]
    fn split_keeps_every_element_but_the_root() {
        let xml = xmark_text(0.001, 1);
        let parts = split_xmark(&xml);
        assert_eq!(parts.len(), 6);
        let inner: usize = parts.iter().map(|(_, x)| count_elements(x) - 1).sum();
        assert_eq!(inner, count_elements(&xml) - 1);
    }
}
