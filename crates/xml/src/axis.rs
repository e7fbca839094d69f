//! XPath axis evaluation over the pre/size/level encoding.
//!
//! This module implements the step algorithm plugged into the paper's step
//! operator `⬡ax::nt` (§3): given a duplicate-free, document-ordered set of
//! context nodes, produce the duplicate-free, document-ordered set of result
//! nodes for an axis/node-test pair.
//!
//! The production implementation is *staircase join* \[Grust, van Keulen,
//! Teubner, VLDB 2003\]: it exploits that the pre/size windows of a sorted
//! context form a "staircase", so overlapping regions are pruned and each
//! document region is scanned at most once. [`naive`] is an obviously
//! correct quadratic reference used for differential (and property) testing.
//!
//! [`step_name_stream`] adds the other family the paper names (§1): per-name
//! element streams, TwigStack-style. It is the kernel the vectorized
//! engine runs by default and the one place a step's access path is
//! decided, from what the call itself holds: the axis and node test say
//! whether a stream applies at all; for `child::name` the context size and
//! the length of the stream slice the context spans say which side probes
//! the other (`probe_from_stream`) — a few context nodes against a long
//! stream, or an unmerged `descendant-or-self::node()/child::x` pair
//! with every node of the document against a short one, and each wants
//! the opposite direction.
//! There is no option to set: the rule compares two counts of
//! comparisons and has no constant in it. `attribute::name` reads each
//! context node's attribute run in place ([`step_into`]), whatever the
//! sizes.
//!
//! The kernels are append-style ([`step_into`], [`step_name_stream_into`];
//! [`step`] and [`step_name_stream`] wrap them): the engine calls one per
//! (iteration, fragment) group into a buffer it reuses; its vectorized
//! arm walks a one-node `child`/`attribute` group in place instead,
//! unless the node's subtree outweighs the name's element stream.
//!
//! All implementations work on a single [`Document`]; the engine layer
//! partitions multi-fragment contexts by fragment.

use crate::name::NameId;
use crate::tree::{Document, NodeKind};

/// XPath axes supported by the step operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    SelfAxis,
    Attribute,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
}

impl Axis {
    /// Every axis.
    pub const ALL: [Axis; 12] = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::SelfAxis,
        Axis::Attribute,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Following,
        Axis::Preceding,
    ];

    /// Whether the principal node kind of this axis is `attribute`.
    pub fn principal_is_attribute(self) -> bool {
        matches!(self, Axis::Attribute)
    }

    /// XPath surface syntax of the axis.
    pub fn as_str(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Node tests supported by the step operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `node()` — any node of the axis.
    AnyKind,
    /// `*` — any node of the axis' principal kind.
    Wildcard,
    /// `name` — named node of the axis' principal kind.
    Name(NameId),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()` / `processing-instruction(target)`
    Pi(Option<NameId>),
    /// `document-node()`
    DocumentNode,
    /// `element()` — any element, regardless of the axis' principal kind.
    Element,
}

impl NodeTest {
    /// Does node `pre` of `doc` satisfy this test on an axis whose
    /// principal node kind is attribute (`principal_attr`) or element?
    pub fn matches(self, doc: &Document, pre: u32, principal_attr: bool) -> bool {
        let kind = doc.kind(pre);
        match self {
            NodeTest::AnyKind => true,
            NodeTest::Wildcard => {
                if principal_attr {
                    kind == NodeKind::Attribute
                } else {
                    kind == NodeKind::Element
                }
            }
            NodeTest::Name(n) => {
                let want = if principal_attr {
                    NodeKind::Attribute
                } else {
                    NodeKind::Element
                };
                kind == want && doc.name(pre) == n
            }
            NodeTest::Text => kind == NodeKind::Text,
            NodeTest::Comment => kind == NodeKind::Comment,
            NodeTest::Pi(target) => {
                kind == NodeKind::ProcessingInstruction && target.is_none_or(|t| doc.name(pre) == t)
            }
            NodeTest::DocumentNode => kind == NodeKind::Document,
            NodeTest::Element => kind == NodeKind::Element,
        }
    }
}

/// Evaluate one location step with staircase-join-style pruning.
///
/// `ctx` must be sorted ascending and duplicate-free; the result is sorted
/// ascending and duplicate-free. Thin wrapper over [`step_into`].
pub fn step(doc: &Document, ctx: &[u32], axis: Axis, test: NodeTest) -> Vec<u32> {
    let mut out = Vec::new();
    step_into(doc, ctx, axis, test, &mut out);
    out
}

/// An append-style step kernel: [`step_into`] or
/// [`step_name_stream_into`].
pub type StepKernel = fn(&Document, &[u32], Axis, NodeTest, &mut Vec<u32>);

/// [`step`], appending to `out`: the engine evaluates thousands of
/// one-node context groups per loop-lifted step, and an append-style
/// kernel lets it reuse one buffer instead of allocating a `Vec` per
/// group. Only the appended tail is touched (and is sorted ascending,
/// duplicate-free); whatever `out` held before stays as it was.
pub fn step_into(doc: &Document, ctx: &[u32], axis: Axis, test: NodeTest, out: &mut Vec<u32>) {
    debug_assert!(
        ctx.windows(2).all(|w| w[0] < w[1]),
        "context must be sorted, dup-free"
    );
    let attr = axis.principal_is_attribute();
    let start = out.len();
    match axis {
        Axis::Descendant => staircase_descendant(doc, ctx, false, test, out),
        Axis::DescendantOrSelf => staircase_descendant(doc, ctx, true, test, out),
        Axis::Child => {
            for &c in ctx {
                if doc.kind(c).can_have_children() {
                    out.extend(doc.children(c).filter(|&p| test.matches(doc, p, attr)));
                }
            }
            sort_tail_if_nested(out, start);
        }
        Axis::Attribute => {
            for &c in ctx {
                if doc.kind(c) == NodeKind::Element {
                    out.extend(doc.attributes(c).filter(|&p| test.matches(doc, p, attr)));
                }
            }
            sort_tail_if_nested(out, start);
        }
        Axis::SelfAxis => out.extend(ctx.iter().copied().filter(|&p| test.matches(doc, p, attr))),
        Axis::Parent => {
            out.extend(
                ctx.iter()
                    .filter_map(|&c| doc.parent(c))
                    .filter(|&p| test.matches(doc, p, attr)),
            );
            sort_dedup_tail(out, start);
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            for &c in ctx {
                if axis == Axis::AncestorOrSelf && test.matches(doc, c, attr) {
                    out.push(c);
                }
                let mut cur = c;
                while let Some(p) = doc.parent(cur) {
                    if test.matches(doc, p, attr) {
                        out.push(p);
                    }
                    cur = p;
                }
            }
            sort_dedup_tail(out, start);
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            for &c in ctx {
                if doc.kind(c) == NodeKind::Attribute {
                    continue; // attributes have no siblings
                }
                let Some(p) = doc.parent(c) else { continue };
                for s in doc.children(p) {
                    let keep = if axis == Axis::FollowingSibling {
                        s > c
                    } else {
                        s < c
                    };
                    if keep && test.matches(doc, s, attr) {
                        out.push(s);
                    }
                }
            }
            sort_dedup_tail(out, start);
        }
        Axis::Following => {
            // following(v) = { p : p > v + size(v) } minus attributes; for a
            // context set the union is governed by the smallest window end.
            if let Some(bound) = ctx.iter().map(|&v| v + doc.size(v)).min() {
                out.extend(
                    (bound + 1..doc.len() as u32).filter(|&p| {
                        doc.kind(p) != NodeKind::Attribute && test.matches(doc, p, attr)
                    }),
                );
            }
        }
        Axis::Preceding => {
            // preceding(v) = { p : p + size(p) < v } minus attributes; for a
            // context set the union is governed by the largest context node.
            if let Some(&maxv) = ctx.last() {
                out.extend((0..maxv).filter(|&p| {
                    p + doc.size(p) < maxv
                        && doc.kind(p) != NodeKind::Attribute
                        && test.matches(doc, p, attr)
                }));
            }
        }
    }
    debug_assert!(out[start..].windows(2).all(|w| w[0] < w[1]));
}

/// Restore ascending order on `out[start..]` after a context-driven
/// child/attribute scan. Every node has one parent and the context is
/// duplicate-free, so the tail never holds a node twice; and it is out of
/// order only when context windows nest (a later context node sits inside
/// an earlier one's subtree) — disjoint windows emit in document order as
/// they come, and the common case pays one comparison pass, no sort.
fn sort_tail_if_nested(out: &mut [u32], start: usize) {
    let tail = &mut out[start..];
    if !tail.is_sorted() {
        tail.sort_unstable();
    }
}

/// Sort `out[start..]` and drop its duplicates (the reverse and sibling
/// axes reach one node from many context nodes).
fn sort_dedup_tail(out: &mut Vec<u32>, start: usize) {
    out[start..].sort_unstable();
    let mut kept = start;
    for i in start..out.len() {
        if kept == start || out[kept - 1] != out[i] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Staircase join for the descendant(-or-self) axis: a single pass over the
/// union of the context windows, skipping pruned (nested) windows.
fn staircase_descendant(
    doc: &Document,
    ctx: &[u32],
    or_self: bool,
    test: NodeTest,
    out: &mut Vec<u32>,
) {
    let start = out.len();
    // Attribute context nodes have empty windows but contribute themselves
    // under `-or-self`; they may lie inside (and be skipped by) an earlier
    // element's window, so the tail is re-sorted when any turned up.
    let mut attr_selves = false;
    // The window scan reads the kind column as a slice: the one kind a
    // node must have to pass the test (`None`: any), then the name that
    // is left to compare, if any.
    let (kind, name) = match test {
        NodeTest::AnyKind => (None, None),
        NodeTest::Wildcard | NodeTest::Element => (Some(NodeKind::Element), None),
        NodeTest::Name(n) => (Some(NodeKind::Element), Some(n)),
        NodeTest::Text => (Some(NodeKind::Text), None),
        NodeTest::Comment => (Some(NodeKind::Comment), None),
        NodeTest::Pi(target) => (Some(NodeKind::ProcessingInstruction), target),
        NodeTest::DocumentNode => (Some(NodeKind::Document), None),
    };
    // `scanned_to` is exclusive: everything < scanned_to has been scanned.
    let mut scanned_to: u32 = 0;
    for &v in ctx {
        if doc.kind(v) == NodeKind::Attribute {
            if or_self && test.matches(doc, v, false) {
                out.push(v);
                attr_selves = true;
            }
            continue;
        }
        let lo = if or_self { v } else { v + 1 };
        let hi = v + doc.size(v) + 1; // exclusive
        let lo = lo.max(scanned_to);
        if lo < hi {
            let kinds = doc.kinds[lo as usize..hi as usize].iter().zip(lo..);
            match kind {
                // `node()`: the whole window bar its attributes (which live
                // inside the pre/size window but are not descendants), so
                // the output size is known up front.
                None => {
                    out.reserve((hi - lo) as usize);
                    let rest = kinds.filter(|(k, _)| **k != NodeKind::Attribute);
                    out.extend(rest.map(|(_, p)| p));
                }
                Some(want) => {
                    let hits = kinds.filter(|(k, _)| **k == want).map(|(_, p)| p);
                    match name {
                        None => out.extend(hits),
                        Some(n) => out.extend(hits.filter(|&p| doc.name(p) == n)),
                    }
                }
            }
        }
        scanned_to = scanned_to.max(hi);
    }
    if attr_selves {
        out[start..].sort_unstable();
    }
}

/// Evaluate one location step using per-name node streams (TwigStack-style
/// "element streams", paper §1) where applicable — named element tests on
/// the child/descendant(-or-self) axes — and fall back to [`step`]
/// otherwise. Thin wrapper over [`step_name_stream_into`].
pub fn step_name_stream(doc: &Document, ctx: &[u32], axis: Axis, test: NodeTest) -> Vec<u32> {
    let mut out = Vec::new();
    step_name_stream_into(doc, ctx, axis, test, &mut out);
    out
}

/// [`step_name_stream`], appending to `out` (see [`step_into`]).
///
/// This is the one place a step's access path is decided. Whether a name
/// stream applies at all is read off the axis and node test; for
/// `descendant(-or-self)::name` each unpruned context window is two
/// binary searches into the stream; for `child::name` the kernel also
/// picks the **probe direction** — context-driven or stream-driven — from
/// the two sizes it holds at run time, the context's and the stream
/// slice's (see `child_probe`).
/// Same sorted, duplicate-free output whichever path runs.
pub fn step_name_stream_into(
    doc: &Document,
    ctx: &[u32],
    axis: Axis,
    test: NodeTest,
    out: &mut Vec<u32>,
) {
    debug_assert!(ctx.windows(2).all(|w| w[0] < w[1]));
    match (axis, test) {
        (Axis::Descendant | Axis::DescendantOrSelf, NodeTest::Name(n)) => {
            let stream = doc.name_streams().elements(n);
            if stream.is_empty() {
                return;
            }
            let or_self = axis == Axis::DescendantOrSelf;
            let mut scanned_to: u32 = 0;
            for &v in ctx {
                let lo = if or_self { v } else { v + 1 }.max(scanned_to);
                let hi = v + doc.size(v) + 1; // exclusive
                if lo < hi {
                    let from = stream.partition_point(|&p| p < lo);
                    let to = from + stream[from..].partition_point(|&p| p < hi);
                    out.extend_from_slice(&stream[from..to]);
                }
                scanned_to = scanned_to.max(hi);
            }
        }
        (Axis::Child, NodeTest::Name(n)) => {
            let stream = doc.name_streams().elements(n);
            child_probe(doc, ctx, spanned(doc, ctx, stream), test, out);
        }
        _ => step_into(doc, ctx, axis, test, out),
    }
}

/// The part of `stream` (ascending pre ranks) any context window can
/// reach: ranks above the first context node and inside the furthest
/// window end.
fn spanned<'s>(doc: &Document, ctx: &[u32], stream: &'s [u32]) -> &'s [u32] {
    let Some(&first) = ctx.first() else {
        return &[];
    };
    // Windows nest, so the furthest end need not be the last node's.
    let end = ctx.iter().map(|&v| v + doc.size(v)).max().unwrap_or(first);
    let from = stream.partition_point(|&p| p <= first);
    let len = stream[from..].partition_point(|&p| p <= end);
    &stream[from..from + len]
}

/// Bit length of `n`: `⌈log₂(n + 1)⌉`, the comparisons one binary search
/// over `n` sorted entries makes.
fn search_steps(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

/// The **stream-driven** probe: the entries of `span` whose parent is a
/// context node. `span` holds only nodes that pass the node test, is
/// ascending, and a node has one parent, so what is kept is the sorted,
/// duplicate-free step result as it comes. Costs one binary search of
/// the context per stream entry.
fn keep_with_parent_in(doc: &Document, ctx: &[u32], span: &[u32], out: &mut Vec<u32>) {
    out.extend(
        span.iter()
            .copied()
            .filter(|&p| doc.parent(p).is_some_and(|v| ctx.binary_search(&v).is_ok())),
    );
}

/// Is the stream-driven probe of `span` entries (`span · ⌈log₂ ctx⌉`
/// comparisons) cheaper than probing the stream with both window bounds
/// of each of `ctx` context nodes (`ctx · 2⌈log₂ span⌉`)? A function of
/// the two sizes alone: there is nothing to tune, and no document or
/// workload it could be tuned to.
fn probe_from_stream(ctx: usize, span: usize) -> bool {
    span * search_steps(ctx) < ctx * 2 * search_steps(span)
}

/// `child::name` over the spanned slice of the name's element stream,
/// probed from whichever side is smaller ([`probe_from_stream`]):
///
/// * stream-driven ([`keep_with_parent_in`]) — the side an unmerged
///   `descendant-or-self::node()/child::x` pair needs: every node of the
///   document is context, a few thousand `x` are stream;
/// * context-driven — one stream window per context node. A small
///   window filters by parent; a large one (the name is frequent below
///   `v`, e.g. recursive markup) walks `v`'s own children instead,
///   bounding the cost by the fanout rather than the subtree's name
///   frequency.
fn child_probe(doc: &Document, ctx: &[u32], span: &[u32], test: NodeTest, out: &mut Vec<u32>) {
    if span.is_empty() {
        return;
    }
    if probe_from_stream(ctx.len(), span.len()) {
        return keep_with_parent_in(doc, ctx, span, out);
    }
    let start = out.len();
    for &v in ctx {
        let (lo, hi) = (v + 1, v + doc.size(v) + 1);
        let from = span.partition_point(|&p| p < lo);
        let to = from + span[from..].partition_point(|&p| p < hi);
        if to - from <= 16 {
            out.extend(
                span[from..to]
                    .iter()
                    .copied()
                    .filter(|&p| doc.parent(p) == Some(v)),
            );
        } else {
            out.extend(doc.children(v).filter(|&p| test.matches(doc, p, false)));
        }
    }
    sort_tail_if_nested(out, start);
}

/// Naive quadratic reference implementation of [`step`]; used for
/// differential testing only.
pub fn naive(doc: &Document, ctx: &[u32], axis: Axis, test: NodeTest) -> Vec<u32> {
    let attr = axis.principal_is_attribute();
    let mut out = Vec::new();
    for p in 0..doc.len() as u32 {
        let in_axis = ctx.iter().any(|&v| node_in_axis(doc, v, p, axis));
        if in_axis && test.matches(doc, p, attr) {
            out.push(p);
        }
    }
    out
}

/// Is `p` reachable from context node `v` along `axis`?
fn node_in_axis(doc: &Document, v: u32, p: u32, axis: Axis) -> bool {
    let is_attr = doc.kind(p) == NodeKind::Attribute;
    match axis {
        Axis::SelfAxis => p == v,
        Axis::Child => doc.parent(p) == Some(v) && !is_attr,
        Axis::Attribute => doc.parent(p) == Some(v) && is_attr,
        Axis::Descendant => doc.is_ancestor(v, p) && !is_attr,
        Axis::DescendantOrSelf => p == v || (doc.is_ancestor(v, p) && !is_attr),
        Axis::Parent => doc.parent(v) == Some(p),
        Axis::Ancestor => doc.is_ancestor(p, v),
        Axis::AncestorOrSelf => p == v || doc.is_ancestor(p, v),
        Axis::FollowingSibling => {
            doc.kind(v) != NodeKind::Attribute
                && doc.parent(p) == doc.parent(v)
                && p > v
                && !is_attr
        }
        Axis::PrecedingSibling => {
            doc.kind(v) != NodeKind::Attribute
                && doc.parent(p) == doc.parent(v)
                && p < v
                && !is_attr
        }
        Axis::Following => p > v + doc.size(v) && !is_attr,
        Axis::Preceding => p + doc.size(p) < v && !is_attr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NamePool;
    use crate::parse::parse_document;

    fn doc(s: &str) -> (Document, NamePool) {
        let mut pool = NamePool::new();
        let d = parse_document(s, &mut pool).unwrap();
        (d, pool)
    }

    #[test]
    fn figure1_descendant_union_example() {
        // §1: $t//(c|d) over <a><b><c/><d/></b><c/></a>.
        let (d, mut pool) = doc("<a><b><c/><d/></b><c/></a>");
        let c = pool.intern("c");
        let dn = pool.intern("d");
        let a = pool.intern("a");
        let root = step(&d, &[0], Axis::Child, NodeTest::Name(a));
        assert_eq!(root, vec![1]);
        let dos = step(&d, &root, Axis::DescendantOrSelf, NodeTest::AnyKind);
        assert_eq!(dos, vec![1, 2, 3, 4, 5]);
        let cs = step(&d, &dos, Axis::Child, NodeTest::Name(c));
        let ds = step(&d, &dos, Axis::Child, NodeTest::Name(dn));
        // (c1, c2) and (d) in document order, as in the paper.
        assert_eq!(cs, vec![3, 5]);
        assert_eq!(ds, vec![4]);
    }

    #[test]
    fn staircase_prunes_nested_contexts() {
        let (d, mut pool) = doc("<a><b><c/><d/></b><c/></a>");
        let c = pool.intern("c");
        // Context {a, b} — b's window nests inside a's; result must still be
        // duplicate-free and sorted.
        let r = step(&d, &[1, 2], Axis::Descendant, NodeTest::Name(c));
        assert_eq!(r, vec![3, 5]);
    }

    #[test]
    fn attribute_axis_and_attribute_exclusion() {
        let (d, mut pool) = doc(r#"<a x="1"><b y="2"/>t</a>"#);
        let x = pool.intern("x");
        let y = pool.intern("y");
        // Descendants never contain attributes.
        let desc = step(&d, &[1], Axis::Descendant, NodeTest::AnyKind);
        assert!(desc.iter().all(|&p| d.kind(p) != NodeKind::Attribute));
        // Attribute axis.
        assert_eq!(step(&d, &[1], Axis::Attribute, NodeTest::Name(x)).len(), 1);
        assert_eq!(step(&d, &[1], Axis::Attribute, NodeTest::Name(y)).len(), 0);
        let all_attrs = step(&d, &[1, 3], Axis::Attribute, NodeTest::Wildcard);
        assert_eq!(all_attrs.len(), 2);
    }

    #[test]
    fn parent_ancestor_siblings() {
        let (d, mut pool) = doc("<a><b><c/><d/></b><c/></a>");
        let _ = pool.intern("a");
        assert_eq!(step(&d, &[3, 4], Axis::Parent, NodeTest::AnyKind), vec![2]);
        assert_eq!(
            step(&d, &[3], Axis::Ancestor, NodeTest::AnyKind),
            vec![0, 1, 2]
        );
        assert_eq!(
            step(&d, &[3], Axis::AncestorOrSelf, NodeTest::Element),
            vec![1, 2, 3]
        );
        assert_eq!(
            step(&d, &[3], Axis::FollowingSibling, NodeTest::AnyKind),
            vec![4]
        );
        assert_eq!(
            step(&d, &[4], Axis::PrecedingSibling, NodeTest::AnyKind),
            vec![3]
        );
    }

    #[test]
    fn following_and_preceding() {
        let (d, _) = doc("<a><b><c/><d/></b><c/></a>");
        // following(c1=3) = {d=4, c2=5}
        assert_eq!(
            step(&d, &[3], Axis::Following, NodeTest::AnyKind),
            vec![4, 5]
        );
        // preceding(c2=5) = {b=2? no: b contains nothing after... } b(2) has
        // size 2, 2+2=4 < 5 → included; c1(3): 3<5 → included; d(4): 4<5 → included.
        assert_eq!(
            step(&d, &[5], Axis::Preceding, NodeTest::AnyKind),
            vec![2, 3, 4]
        );
        // an ancestor is in neither axis
        assert!(!step(&d, &[3], Axis::Preceding, NodeTest::AnyKind).contains(&1));
    }

    /// Every kernel entry point against [`naive`], each also appending
    /// behind a sentinel that must survive.
    fn assert_kernels_match_naive(d: &Document, ctx: &[u32], ax: Axis, t: NodeTest) {
        let want = naive(d, ctx, ax, t);
        assert!(want.windows(2).all(|w| w[0] < w[1]));
        let label = format!("axis {ax:?} test {t:?} ctx {ctx:?}");
        assert_eq!(step(d, ctx, ax, t), want, "staircase, {label}");
        assert_eq!(step_name_stream(d, ctx, ax, t), want, "streams, {label}");
        let kernels: [StepKernel; 2] = [step_into, step_name_stream_into];
        for kernel in kernels {
            let mut out = vec![u32::MAX, 7];
            kernel(d, ctx, ax, t, &mut out);
            assert_eq!(out[..2], [u32::MAX, 7], "{label}");
            assert_eq!(out[2..], want, "{label}");
        }
    }

    #[test]
    fn kernels_match_naive_across_context_shapes_and_probe_directions() {
        // Thirty groups with a frequent name (`x`), recursive markup (`g`
        // in `g`), text, attributes on most elements — and a rare name
        // `z` with a rare attribute `id`, so streams of both lengths meet
        // contexts of both sizes.
        let mut xml = String::from("<r>");
        for i in 0..30 {
            xml += &format!(r#"<g k="{i}"><x/><y k="{i}"/>t<g><x k="{i}"/><x/></g></g>"#);
            if i % 10 == 0 {
                xml += &format!(r#"<z id="{i}"><x/></z>"#);
            }
        }
        xml += "</r>";
        let (d, mut pool) = doc(&xml);
        let names = ["x", "g", "z", "k", "id", "nowhere"].map(|n| NodeTest::Name(pool.intern(n)));
        let tests = [
            NodeTest::AnyKind,
            NodeTest::Wildcard,
            NodeTest::Text,
            NodeTest::Element,
            NodeTest::DocumentNode,
        ];
        let all: Vec<u32> = (0..d.len() as u32).collect();
        let of_kind =
            |k: NodeKind| -> Vec<u32> { all.iter().copied().filter(|&p| d.kind(p) == k).collect() };
        let groups = step(&d, &all, Axis::SelfAxis, names[1]);
        let contexts: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],                                 // the document node
            vec![1],                                 // the root element
            vec![groups[3]],                         // one inner node
            vec![*all.last().unwrap()],              // the last leaf
            vec![1, groups[0], groups[1]],           // nested three deep
            vec![groups[0], groups[10], groups[59]], // a few disjoint windows
            groups.clone(),                          // many windows, half of them nested
            of_kind(NodeKind::Attribute),            // attribute contexts only
            of_kind(NodeKind::Element),
            all.clone(), // every node of the document
        ];
        // Which side `child::name` probed: [context-driven, stream-driven].
        let mut child = [0usize; 2];
        for ctx in &contexts {
            for ax in Axis::ALL {
                for &t in tests.iter().chain(&names) {
                    assert_kernels_match_naive(&d, ctx, ax, t);
                    let NodeTest::Name(n) = t else { continue };
                    let span = spanned(&d, ctx, d.name_streams().elements(n));
                    if ax == Axis::Child && !span.is_empty() {
                        child[usize::from(probe_from_stream(ctx.len(), span.len()))] += 1;
                    }
                }
            }
        }
        assert!(child.iter().all(|&n| n >= 3), "{child:?}");
    }
}
