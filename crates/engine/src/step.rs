//! The step operator: `⬡` over (iter, node) context pairs, evaluated
//! per (iter, fragment) group.
//!
//! The context is read as two slices — the `iter` integers and the node
//! ids, borrowed straight out of an `Int` and a `Node` column when they
//! arrive dense — and is usually already sorted and duplicate-free (a
//! step's input is a step's output), which one pass confirms without
//! copying either. Each group's hits are appended straight to the two
//! output columns; there is no allocation per group, which is what a
//! loop-lifted step — thousands of one-node groups — is made of. The
//! groups run in order on the calling thread, so the output is the
//! (iter, doc-order) sequence by construction.
//!
//! How a group is evaluated is decided by the arm and the group alone.
//! The scalar reference arm feeds every group's pre ranks through one
//! reused buffer into the plain staircase join [`axis::step_into`] and
//! boxes its output. The vectorized arm walks a group of **one** context
//! node on `child` or `attribute` in place — that node's children or
//! attributes, filtered by the node test, with no kernel call — except
//! a `child::name` group whose node's subtree is at least as large as
//! the name's element stream (`doc(…)/site`): there the stream is the
//! shorter read, and the group goes to [`axis::step_name_stream_into`]
//! like every group of two or more nodes and every other axis. That
//! kernel decides per call whether a name stream applies and, for
//! `child::name`, from which side to probe it (from the context size and
//! the stream slice length, see there) and scans staircase-style
//! otherwise. So the differential suites check the in-place walk, the
//! stream paths, both probe directions and the node-column layout
//! against the scalar arm. [`axis::naive`] is the reference both are
//! tested against, here and in `tests/prop_axes.rs`.

use crate::column::Column;
use crate::eval::{int_col, EvalError};
use crate::item::Item;
use crate::table::{ColView, Table};
use exrquy_algebra::Col;
use exrquy_diag::ErrorCode;
use exrquy_xml::{axis, Axis, Document, FragArena, NodeId, NodeKind, NodeRead, NodeTest};
use std::borrow::Cow;

/// The node ids of a view, borrowed when it is a dense `Node` column.
/// The first non-node value in row order is a type error (XPTY0004). The
/// whole column is checked before `eval_step` looks at `iter`, so a
/// malformed table with both an atomic item and a non-integer iter
/// reports XPTY0004 wherever the bad iter sits.
fn node_view(c: &ColView) -> Result<Cow<'_, [NodeId]>, EvalError> {
    let node = |it: &Item| match it {
        Item::Node(n) => Ok(*n),
        other => Err(EvalError::new(
            ErrorCode::XPTY0004,
            format!("path step applied to atomic value {other}"),
        )),
    };
    Ok(match (&**c.data(), c.sel()) {
        (Column::Node(v), None) => Cow::Borrowed(v.as_slice()),
        (Column::Node(v), Some(s)) => s.iter().map(|&p| v[p as usize]).collect(),
        (Column::Item(v), None) => v.iter().map(node).collect::<Result<_, _>>()?,
        (Column::Item(v), Some(s)) => s
            .iter()
            .map(|&p| node(&v[p as usize]))
            .collect::<Result<_, _>>()?,
        _ => (0..c.len())
            .map(|r| node(&c.get(r)))
            .collect::<Result<_, _>>()?,
    })
}

/// One row range per (iter, frag) group of a context that is strictly
/// ascending by (iter, node) — sorted and duplicate-free, as the kernels
/// want each group — or `None` when it is not. One pass decides both.
fn context_groups(iters: &[i64], nodes: &[NodeId]) -> Option<Vec<std::ops::Range<usize>>> {
    let mut groups = Vec::new();
    let mut start = 0;
    for r in 1..nodes.len() {
        let (prev, next) = ((iters[r - 1], nodes[r - 1]), (iters[r], nodes[r]));
        if prev >= next {
            return None;
        }
        if (prev.0, prev.1.frag) != (next.0, next.1.frag) {
            groups.push(start..r);
            start = r;
        }
    }
    if !nodes.is_empty() {
        groups.push(start..nodes.len());
    }
    Some(groups)
}

/// The children (`child`) or attributes (`attribute`) of the one context
/// node `v` that pass `test`, appended to `out` in document order: what
/// [`axis::step_into`] does for a one-node context, without a kernel call.
fn walk_in_place(doc: &Document, v: u32, ax: Axis, test: NodeTest, out: &mut Vec<u32>) {
    let attr = ax.principal_is_attribute();
    match ax {
        Axis::Child if doc.kind(v).can_have_children() => {
            out.extend(doc.children(v).filter(|&p| test.matches(doc, p, attr)))
        }
        Axis::Attribute if doc.kind(v) == NodeKind::Element => {
            out.extend(doc.attributes(v).filter(|&p| test.matches(doc, p, attr)))
        }
        _ => {}
    }
}

pub(crate) fn eval_step(
    arena: &FragArena,
    t: &Table,
    ax: Axis,
    test: NodeTest,
    vec: bool,
) -> Result<Table, EvalError> {
    let (iter_col, item_col) = (t.col(Col::ITER), t.col(Col::ITEM));
    let mut nodes = node_view(&item_col)?;
    let mut iters = int_col(&iter_col)?;
    // The kernels want each group's context sorted and duplicate-free.
    let groups = match context_groups(&iters, &nodes) {
        Some(groups) => groups,
        None => {
            let mut pairs: Vec<(i64, NodeId)> =
                iters.iter().copied().zip(nodes.iter().copied()).collect();
            pairs.sort_unstable();
            pairs.dedup();
            let (i, n): (Vec<i64>, Vec<NodeId>) = pairs.into_iter().unzip();
            (iters, nodes) = (Cow::Owned(i), Cow::Owned(n));
            context_groups(&iters, &nodes).expect("sorted, duplicate-free context")
        }
    };
    let kernel: axis::StepKernel = if vec {
        axis::step_name_stream_into
    } else {
        axis::step_into
    };
    let mut out_iter: Vec<i64> = Vec::new();
    let mut out_node: Vec<NodeId> = Vec::new();
    let (mut ctx, mut hits): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    // (fragment, length) of the `child::name` test's element stream,
    // resolved once per fragment rather than once per group.
    let mut stream: Option<(u32, usize)> = None;
    for g in groups {
        let (it, frag) = (iters[g.start], nodes[g.start].frag);
        let doc = arena.frag(frag);
        hits.clear();
        let v = nodes[g.start].pre;
        let walk = vec
            && g.len() == 1
            && match (ax, test) {
                (Axis::Child, NodeTest::Name(n)) => {
                    let len = match stream {
                        Some((f, len)) if f == frag => len,
                        _ => {
                            let len = doc.name_streams().elements(n).len();
                            stream = Some((frag, len));
                            len
                        }
                    };
                    (doc.size(v) as usize) < len
                }
                (Axis::Child | Axis::Attribute, _) => true,
                _ => false,
            };
        if walk {
            walk_in_place(doc, v, ax, test, &mut hits);
        } else {
            ctx.clear();
            ctx.extend(nodes[g].iter().map(|n| n.pre));
            kernel(doc, &ctx, ax, test, &mut hits);
        }
        out_iter.extend(std::iter::repeat_n(it, hits.len()));
        out_node.extend(hits.iter().map(|&pre| NodeId::new(frag, pre)));
    }
    Ok(Table::new(vec![
        (Col::ITER, Column::Int(out_iter)),
        (Col::ITEM, Column::from_nodes(out_node, vec)),
    ]))
}

#[cfg(test)]
mod tests {
    //! `eval_step` against [`axis::naive`] run per (iter, fragment)
    //! group: both arms, over unsorted and duplicated multi-iteration
    //! contexts spanning two fragments and over one-node-per-iteration
    //! contexts, in every input representation.

    use super::*;
    use exrquy_xml::rng::SmallRng;
    use exrquy_xml::Catalog;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn two_fragment_arena() -> FragArena {
        let mut b = Catalog::builder();
        let mut one = String::from("<r>");
        for i in 0..12 {
            one += &format!(r#"<g k="{i}"><x/>t<g><x id="{i}"/></g></g>"#);
        }
        b.load_str("one.xml", &(one + "</r>")).unwrap();
        // `w` is wide: many `y` children and one rare `z`, so its subtree
        // outweighs both names' element streams.
        let ys = "<y/>".repeat(40);
        let two = format!(r#"<r><x k="1"/><g><x/><x/></g>u<w>{ys}<z/>{ys}</w></r>"#);
        b.load_str("two.xml", &two).unwrap();
        FragArena::new(Arc::new(b.build()))
    }

    /// The (iter, node) rows `naive` yields group by group.
    fn expected(
        arena: &FragArena,
        rows: &[(i64, NodeId)],
        ax: Axis,
        test: NodeTest,
    ) -> Vec<(i64, NodeId)> {
        let mut groups: BTreeMap<(i64, u32), Vec<u32>> = BTreeMap::new();
        for &(it, n) in rows {
            groups.entry((it, n.frag)).or_default().push(n.pre);
        }
        let mut out = Vec::new();
        for ((it, frag), mut ctx) in groups {
            ctx.sort_unstable();
            ctx.dedup();
            let hits = axis::naive(arena.frag(frag), &ctx, ax, test);
            out.extend(hits.into_iter().map(|p| (it, NodeId::new(frag, p))));
        }
        out
    }

    fn rows_of(t: &Table) -> Vec<(i64, NodeId)> {
        (0..t.nrows())
            .map(|r| match t.item(Col::ITEM, r) {
                Item::Node(n) => (t.int(Col::ITER, r), n),
                other => panic!("non-node step result {other:?}"),
            })
            .collect()
    }

    #[test]
    fn both_arms_match_naive_per_group() {
        let arena = two_fragment_arena();
        let mut rng = SmallRng::seed_from_u64(18);
        let sizes = [arena.frag(0).len() as u32, arena.frag(1).len() as u32];
        // Shuffled, duplicated contexts over four iterations; one context
        // holds every node of both fragments in every iteration.
        let mut contexts: Vec<Vec<(i64, NodeId)>> = (0..6)
            .map(|_| {
                (0..rng.gen_range(1usize..60))
                    .map(|_| {
                        let frag = rng.gen_range(0u32..2);
                        let pre = rng.gen_range(0..sizes[frag as usize]);
                        (rng.gen_range(1i64..5), NodeId::new(frag, pre))
                    })
                    .collect()
            })
            .collect();
        contexts.push(
            (1..4)
                .rev()
                .flat_map(|it| {
                    (0..2).flat_map(move |f| {
                        (0..sizes[f as usize]).map(move |p| (it, NodeId::new(f, p)))
                    })
                })
                .collect(),
        );
        // One node per iteration — the loop-lifted shape the vectorized
        // arm walks in place: every node of both fragments (nested nodes,
        // attributes, text and document nodes), in order and shuffled,
        // and a random draw.
        let every: Vec<NodeId> = (0..2)
            .flat_map(|f| (0..sizes[f as usize]).map(move |p| NodeId::new(f, p)))
            .collect();
        let one_per_iter = |nodes: &[NodeId]| -> Vec<(i64, NodeId)> {
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| (i as i64, n))
                .collect()
        };
        let mut shuffled = one_per_iter(&every);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let drawn: Vec<NodeId> = (0..40)
            .map(|_| {
                let frag = rng.gen_range(0u32..2);
                NodeId::new(frag, rng.gen_range(0..sizes[frag as usize]))
            })
            .collect();
        contexts.extend([one_per_iter(&every), shuffled, one_per_iter(&drawn)]);
        let pool = arena.catalog().pool();
        let tests = [
            NodeTest::AnyKind,
            NodeTest::Wildcard,
            NodeTest::Text,
            NodeTest::Name(pool.lookup("x").unwrap()),
            NodeTest::Name(pool.lookup("g").unwrap()),
            NodeTest::Name(pool.lookup("k").unwrap()),
            NodeTest::Name(pool.lookup("id").unwrap()),
            NodeTest::Name(pool.lookup("y").unwrap()),
            NodeTest::Name(pool.lookup("z").unwrap()),
        ];
        // Both sides of the vectorized arm's walk-or-stream choice for a
        // one-node `child::name` group are among the contexts above.
        let (mut walked, mut streamed) = (0, 0);
        for &n in &every {
            let doc = arena.frag(n.frag);
            for name in ["x", "y", "z"] {
                let stream = doc.name_streams().elements(pool.lookup(name).unwrap());
                match (doc.size(n.pre) as usize) < stream.len() {
                    true => walked += 1,
                    false => streamed += usize::from(!stream.is_empty()),
                }
            }
        }
        assert!(
            walked > 0 && streamed > 0,
            "walked {walked}, streamed {streamed}"
        );
        for rows in &contexts {
            let iters = Column::Int(rows.iter().map(|r| r.0).collect());
            let nodes: Vec<NodeId> = rows.iter().map(|r| r.1).collect();
            let table =
                |item: Column| Table::new(vec![(Col::ITER, iters.clone()), (Col::ITEM, item)]);
            // Behind a selection vector that restores the row order of a
            // physically reversed table.
            let reversed = Table::new(vec![
                (
                    Col::ITER,
                    Column::Int(rows.iter().rev().map(|r| r.0).collect()),
                ),
                (
                    Col::ITEM,
                    Column::Node(nodes.iter().rev().copied().collect()),
                ),
            ])
            .select_rows((0..rows.len() as u32).rev().collect());
            let inputs = [
                table(Column::from_nodes(nodes.clone(), false)),
                table(Column::Node(nodes.clone())),
                reversed,
            ];
            for ax in Axis::ALL {
                for &test in &tests {
                    let want = expected(&arena, rows, ax, test);
                    assert!(want.windows(2).all(|w| w[0] < w[1]));
                    for (input, vec) in (0..inputs.len()).flat_map(|i| [(i, false), (i, true)]) {
                        let got = eval_step(&arena, &inputs[input], ax, test, vec).unwrap();
                        assert_eq!(
                            rows_of(&got),
                            want,
                            "{ax}::{test:?} vec {vec} input {input}"
                        );
                    }
                }
            }
        }
    }

    /// The reference arm keeps nodes boxed; the vectorized arm emits the
    /// dense node column — whatever representation came in.
    #[test]
    fn output_representation_follows_the_arm() {
        let arena = two_fragment_arena();
        let root = NodeId::new(0, 0);
        for boxed_input in [true, false] {
            let t = Table::new(vec![
                (Col::ITER, Column::Int(vec![1])),
                (Col::ITEM, Column::from_nodes(vec![root], !boxed_input)),
            ]);
            let step = |vec| eval_step(&arena, &t, Axis::Descendant, NodeTest::AnyKind, vec);
            let out = step(false).unwrap();
            assert!(matches!(&**out.col(Col::ITEM).data(), Column::Item(v) if v.len() > 1));
            let out = step(true).unwrap();
            assert!(matches!(&**out.col(Col::ITEM).data(), Column::Node(v) if v.len() > 1));
        }
    }

    #[test]
    fn atomic_context_item_is_a_type_error() {
        let arena = two_fragment_arena();
        let t = Table::new(vec![
            (Col::ITER, Column::Int(vec![1, 1])),
            (
                Col::ITEM,
                Column::Item(vec![Item::Node(NodeId::new(0, 1)), Item::Int(3)]),
            ),
        ]);
        for vec in [false, true] {
            let err = eval_step(&arena, &t, Axis::Child, NodeTest::AnyKind, vec).unwrap_err();
            assert_eq!(err.code, ErrorCode::XPTY0004);
        }
    }
}
