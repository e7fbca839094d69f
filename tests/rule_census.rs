//! Rule census: which named rewrites fire on the XMark corpora at all.
//!
//! Every plan is prepared, never executed: XMark Q1–Q20 over one small
//! document and the shard matrix over that document split by subtree, at
//! one shard and at eight, each under the three compiler profiles — order
//! indifferent, the full optimizer in `ordered` mode, and the §6
//! baseline. The rules that fire on none of them must be exactly
//! [`NEVER_FIRES`]: a rule that goes silent, or a listed one that starts
//! firing, turns this red. The list records; it does not delete.

use exrquy::frontend::OrderingMode;
use exrquy::opt::RULE_NAMES;
use exrquy::{QueryOptions, Session};
use exrquy_verify::attribute::fired_rules;
use exrquy_verify::lattice::{split_xmark, XMARK_SHARD_QUERIES};
use exrquy_xmark::{generate, query, XmarkConfig};
use std::collections::BTreeSet;

/// The rules no plan of the corpus fires, each with why. Two of them do
/// fire on the fuzz stream (`fuzz-verify` seeds 1 and 7, 300 iterations
/// each), which says where to look before deleting one.
const NEVER_FIRES: &[(&str, &str)] = &[
    (
        "cda-bypass-fun",
        "no plan here or in the fuzz stream leaves a `fun` column unread",
    ),
    (
        "select-const-true",
        "no σ reads a column proven to be constant `true`",
    ),
    (
        "select-const-false",
        "no σ reads a column proven to be constant `false`",
    ),
    ("distinct-dedup", "no δ sits directly on a δ"),
    (
        "distinct-disjoint-union",
        "no query unions steps with disjoint name tests; fuzz does",
    ),
    ("union-empty-side", "no ∪̇ has an empty literal side"),
    (
        "shard-push-select",
        "no σ reads a ∪̂ directly: collection scans are stepped first",
    ),
    (
        "shard-push-fun",
        "no `fun` reads a ∪̂ directly here; fuzz's multi-document corpora do",
    ),
    ("shard-push-attach", "no attach reads a ∪̂ directly"),
];

fn profiles() -> [(&'static str, QueryOptions); 3] {
    let mut ordered = QueryOptions::order_indifferent();
    ordered.ordering = Some(OrderingMode::Ordered);
    [
        ("unordered", QueryOptions::order_indifferent()),
        ("ordered", ordered),
        ("baseline", QueryOptions::baseline()),
    ]
}

#[test]
fn silent_rules_are_exactly_the_recorded_ones() {
    let xml = generate(&XmarkConfig {
        scale: 0.001,
        seed: 42,
    });
    let mut whole = Session::new();
    whole.load_document("auction.xml", &xml).unwrap();
    let docs = split_xmark(&xml);
    let split = [1, 8].map(|shards| {
        let mut s = Session::new();
        s.load_corpus_sharded(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())), shards);
        s
    });

    let corpus = (1..=20).map(|n| (&whole, query(n))).chain(
        split
            .iter()
            .flat_map(|s| XMARK_SHARD_QUERIES.iter().map(move |q| (s, *q))),
    );
    let mut fired: BTreeSet<&str> = BTreeSet::new();
    for (session, q) in corpus {
        for (name, opts) in profiles() {
            let plan = session
                .prepare(q, &opts)
                .unwrap_or_else(|e| panic!("{name}: {q}: {e}"));
            fired.extend(fired_rules(&plan));
        }
    }
    let silent: Vec<&str> = RULE_NAMES
        .iter()
        .copied()
        .filter(|r| !fired.contains(r))
        .collect();
    let recorded: Vec<&str> = NEVER_FIRES.iter().map(|(r, _)| *r).collect();
    assert_eq!(silent, recorded, "fired: {fired:?}");
}
