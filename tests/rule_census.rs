//! Rule census: which named rewrites fire on the XMark corpora at all,
//! and under which compiler profile.
//!
//! Every plan is prepared, never executed: XMark Q1–Q20 over one small
//! document and the `fn:collection()` matrix over that document split by
//! subtree, each under the three compiler profiles — order indifferent,
//! the full optimizer in `ordered` mode, and the §6 baseline. The rules that fire on none of them must be exactly
//! [`NEVER_FIRES`]: a rule that goes silent, or a listed one that starts
//! firing, turns this red. Each profile is checked against its preset
//! too: the baseline fires none of the rules `OptOptions::disabled()`
//! switches off, and the order-indifferent profile fires every paper pass.

use exrquy::frontend::OrderingMode;
use exrquy::opt::{OptOptions, RULE_NAMES};
use exrquy::{QueryOptions, Session};
use exrquy_verify::attribute::fired_rules;
use exrquy_verify::lattice::{split_xmark, XMARK_COLLECTION_QUERIES};
use exrquy_xmark::{generate, query, XmarkConfig};
use std::collections::{BTreeMap, BTreeSet};

/// The rules no plan of the corpus fires, each with why. Each fires on
/// the fuzz stream (`fuzz-verify` seeds 1 and 7, 300 iterations each),
/// which is why it stays.
const NEVER_FIRES: &[(&str, &str)] = &[(
    "distinct-disjoint-union",
    "no query unions steps with disjoint name tests; fuzz does",
)];

/// The paper's three rewrite passes, each as the rules that make it up.
const PAPER_PASSES: &[(&str, &[&str])] = &[
    (
        "§4.1 column dependency analysis",
        &[
            "cda-bypass-rownum",
            "cda-bypass-rowid",
            "cda-bypass-attach",
            "project-prune",
            "join-elim-key-domain",
            "join-self-key",
        ],
    ),
    (
        "§7 %-weakening",
        &["weaken-criteria", "weaken-rownum-to-rowid"],
    ),
    ("§5 step merging", &["merge-steps"]),
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

/// The rules each profile fires over the whole corpus.
fn census() -> BTreeMap<&'static str, BTreeSet<&'static str>> {
    let xml = generate(&XmarkConfig {
        scale: 0.001,
        seed: 42,
    });
    let mut whole = Session::new();
    whole.load_document("auction.xml", &xml).unwrap();
    let docs = split_xmark(&xml);
    let mut split = Session::new();
    split
        .load_corpus(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())))
        .unwrap();

    let corpus = (1..=20)
        .map(|n| (&whole, query(n)))
        .chain(XMARK_COLLECTION_QUERIES.iter().map(|q| (&split, *q)));
    let mut fired: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (session, q) in corpus {
        for (name, opts) in profiles() {
            let plan = session
                .prepare(q, &opts)
                .unwrap_or_else(|e| panic!("{name}: {q}: {e}"));
            fired.entry(name).or_default().extend(fired_rules(&plan));
        }
    }
    fired
}

#[test]
fn silent_rules_are_exactly_the_recorded_ones() {
    let census = census();
    let fired: BTreeSet<&str> = census.values().flatten().copied().collect();
    let silent: Vec<&str> = RULE_NAMES
        .iter()
        .copied()
        .filter(|r| !fired.contains(r))
        .collect();
    let recorded: Vec<&str> = NEVER_FIRES.iter().map(|(r, _)| *r).collect();
    assert_eq!(silent, recorded, "fired: {fired:?}");
}

#[test]
fn each_profile_fires_what_its_preset_allows() {
    let census = census();
    let baseline_off = OptOptions::disabled().disabled_rules;
    assert_eq!(baseline_off.len(), 10, "{baseline_off}");
    let leaked: Vec<&str> = census["baseline"]
        .iter()
        .copied()
        .filter(|r| baseline_off.contains(r))
        .collect();
    assert!(leaked.is_empty(), "baseline fired {leaked:?}");
    for (pass, rules) in PAPER_PASSES {
        assert!(
            rules.iter().any(|r| census["unordered"].contains(r)),
            "{pass} never fires order-indifferent: {:?}",
            census["unordered"]
        );
    }
}
