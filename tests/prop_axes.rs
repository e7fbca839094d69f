//! Randomized property tests: staircase join ≡ the naive reference axis
//! semantics on random trees, for every axis and node test. Driven by
//! the in-repo deterministic PRNG (seeded loops stand in for proptest
//! strategies so the suite builds offline).

use exrquy_xml::rng::SmallRng;
use exrquy_xml::{axis, Axis, Document, NamePool, NodeTest, TreeBuilder};

/// A recipe for a random tree: a preorder walk encoded as actions.
#[derive(Debug, Clone)]
enum Action {
    Open(u8),
    Close,
    Attr(u8),
    Text,
    Comment,
}

fn random_actions(rng: &mut SmallRng) -> Vec<Action> {
    let n = rng.gen_range(0usize..60);
    (0..n)
        .map(|_| match rng.gen_range(0..5) {
            0 => Action::Open(rng.gen_range(0u32..6) as u8),
            1 => Action::Close,
            2 => Action::Attr(rng.gen_range(0u32..4) as u8),
            3 => Action::Text,
            _ => Action::Comment,
        })
        .collect()
}

/// Build a well-formed document from an arbitrary action list. Attribute
/// names may repeat on one element — the encoding tolerates it and no
/// constructor rejects it — unless `unique_attrs` asks for a tree the
/// parser would accept (it rejects a repeat as FODC0006).
fn build(actions: &[Action], pool: &mut NamePool, unique_attrs: bool) -> Document {
    let names: Vec<_> = (0..6).map(|i| pool.intern(&format!("n{i}"))).collect();
    let attrs: Vec<_> = (0..4).map(|i| pool.intern(&format!("a{i}"))).collect();
    let mut b = TreeBuilder::new();
    let root = pool.intern("root");
    b.open_element(root);
    let mut depth = 1;
    let mut can_attr = true;
    // Attribute names already on the open element (bit `i` for `a{i}`).
    let mut attrs_used = 0u8;
    // Avoid adjacent text nodes: the XDM merges them, which would break
    // the reparse-length check.
    let mut last_was_text = false;
    for a in actions {
        match a {
            Action::Open(i) => {
                b.open_element(names[*i as usize]);
                depth += 1;
                can_attr = true;
                attrs_used = 0;
                last_was_text = false;
            }
            Action::Close => {
                if depth > 1 {
                    b.close();
                    depth -= 1;
                    can_attr = false;
                    last_was_text = false;
                }
            }
            Action::Attr(i) => {
                if can_attr && !(unique_attrs && attrs_used & (1 << i) != 0) {
                    attrs_used |= 1 << i;
                    b.attribute(attrs[*i as usize], "v");
                }
            }
            Action::Text => {
                if !last_was_text {
                    b.text("t");
                    can_attr = false;
                    last_was_text = true;
                }
            }
            Action::Comment => {
                b.comment("c");
                can_attr = false;
                last_was_text = false;
            }
        }
    }
    while depth > 0 {
        b.close();
        depth -= 1;
    }
    b.finish()
}

#[test]
fn staircase_equals_naive() {
    let mut rng = SmallRng::seed_from_u64(0xA7E5);
    for _case in 0..64 {
        let acts = random_actions(&mut rng);
        let mut pool = NamePool::new();
        let doc = build(&acts, &mut pool, false);
        assert!(doc.check_invariants().is_ok());
        // Context: random subset of all nodes.
        let ctx: Vec<u32> = (0..doc.len() as u32)
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let tests = [
            NodeTest::AnyKind,
            NodeTest::Wildcard,
            NodeTest::Name(pool.intern("n1")),
            NodeTest::Name(pool.intern("a1")),
            NodeTest::Text,
            NodeTest::Comment,
            NodeTest::Element,
            NodeTest::DocumentNode,
        ];
        for ax in Axis::ALL {
            for &t in &tests {
                let fast = axis::step(&doc, &ctx, ax, t);
                let slow = axis::naive(&doc, &ctx, ax, t);
                assert_eq!(
                    &fast,
                    &slow,
                    "axis {:?} test {:?} ctx {:?}\n{}",
                    ax,
                    t,
                    &ctx,
                    doc.dump(&pool)
                );
                // Results are sorted & duplicate-free.
                assert!(fast.windows(2).all(|w| w[0] < w[1]));
                // The TwigStack-style name-stream algorithm agrees too.
                let streamed = axis::step_name_stream(&doc, &ctx, ax, t);
                assert_eq!(
                    &streamed, &slow,
                    "name-stream axis {:?} test {:?} ctx {:?}",
                    ax, t, &ctx
                );
            }
        }
    }
}

/// The size-driven stream kernel against the staircase join (checked
/// against `naive` above and in `exrquy-xml`'s unit differential) on a
/// document large enough that contexts sit far on either side of the
/// probe-direction threshold: every named step of the forward and
/// attribute axes from the root, from one entity class, from every
/// element and from every node — the context an unmerged
/// `descendant-or-self::node()/child::x` pair produces. Sampled small
/// contexts go against `naive` itself. Release-mode CI job.
#[test]
#[ignore = "XMark scale 0.05 — run in release: cargo test --release --test prop_axes -- --ignored"]
fn stream_kernel_equals_staircase_on_an_xmark_document() {
    let xml = exrquy_xmark::generate(&exrquy_xmark::XmarkConfig::at_scale(0.05));
    let mut pool = NamePool::new();
    let doc = exrquy_xml::parse_document(&xml, &mut pool).unwrap();
    let all: Vec<u32> = (0..doc.len() as u32).collect();
    let named = |name: &str| {
        axis::step(
            &doc,
            &all,
            Axis::SelfAxis,
            NodeTest::Name(pool.lookup(name).unwrap()),
        )
    };
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let sample: Vec<u32> = all
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.0005))
        .collect();
    let contexts = [
        vec![0],
        named("person"),
        named("item"),
        axis::step(&doc, &all, Axis::SelfAxis, NodeTest::Element),
        all.clone(),
        sample.clone(),
    ];
    // Every element and attribute name of the document.
    let names: std::collections::BTreeSet<_> = all
        .iter()
        .map(|&p| doc.name(p))
        .filter(|n| n.is_some())
        .collect();
    let tests: Vec<NodeTest> = names.into_iter().map(NodeTest::Name).collect();
    let mut out = Vec::new();
    for ctx in &contexts {
        for ax in [
            Axis::Child,
            Axis::Attribute,
            Axis::Descendant,
            Axis::DescendantOrSelf,
        ] {
            for &t in &tests {
                out.clear();
                axis::step_name_stream_into(&doc, ctx, ax, t, &mut out);
                assert_eq!(
                    out,
                    axis::step(&doc, ctx, ax, t),
                    "{ax}::{t:?} over {} nodes",
                    ctx.len()
                );
            }
        }
    }
    for ax in Axis::ALL {
        for &t in tests
            .iter()
            .step_by(7)
            .chain(&[NodeTest::AnyKind, NodeTest::Text])
        {
            let want = axis::naive(&doc, &sample, ax, t);
            assert_eq!(axis::step(&doc, &sample, ax, t), want, "{ax}::{t:?}");
            assert_eq!(
                axis::step_name_stream(&doc, &sample, ax, t),
                want,
                "{ax}::{t:?}"
            );
        }
    }
}

#[test]
fn subtree_copy_preserves_structure() {
    let mut rng = SmallRng::seed_from_u64(0xC0B1);
    for _case in 0..64 {
        let acts = random_actions(&mut rng);
        let mut pool = NamePool::new();
        let doc = build(&acts, &mut pool, false);
        // Copy the whole root into a fresh builder and compare serialized
        // forms (deep copy is what constructors rely on).
        let mut b = TreeBuilder::new();
        b.copy_subtree(&doc, 0);
        let copy = b.finish();
        assert!(copy.check_invariants().is_ok());
        let mut s1 = String::new();
        let mut s2 = String::new();
        exrquy_xml::serialize::serialize_subtree(&doc, 0, &pool, &mut s1);
        exrquy_xml::serialize::serialize_subtree(&copy, 0, &pool, &mut s2);
        assert_eq!(s1, s2);
    }
}

#[test]
fn parse_serialize_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x51DE);
    for _case in 0..64 {
        let acts = random_actions(&mut rng);
        let mut pool = NamePool::new();
        let doc = build(&acts, &mut pool, true);
        let mut xml = String::new();
        exrquy_xml::serialize::serialize_subtree(&doc, 0, &pool, &mut xml);
        let mut pool2 = NamePool::new();
        let reparsed = exrquy_xml::parse_document(&xml, &mut pool2).unwrap();
        // Reparsed adds a document node at pre 0.
        assert_eq!(reparsed.len(), doc.len() + 1);
        let mut xml2 = String::new();
        exrquy_xml::serialize::serialize_subtree(&reparsed, 0, &pool2, &mut xml2);
        assert_eq!(xml, xml2);
    }
}
