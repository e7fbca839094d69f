//! Node-construction kernels — the writers. They append fragments to the
//! execution's arena overlay and therefore run on the owning thread only.

use crate::column::Column;
use crate::eval::{int_col, EvalError};
use crate::item::Item;
use crate::sort::{sorted_perm, Key};
use crate::table::Table;
use exrquy_algebra::{Col, Twig, TwigPart};
use exrquy_diag::{BudgetMeter, ErrorCode};
use exrquy_xml::tree::NodeKind;
use exrquy_xml::{FragArena, NameId, NodeId, NodeRead, TreeBuilder};

/// A twig flattened to the calls one iteration makes on the builder,
/// every element name interned once.
enum Step {
    Open(NameId),
    Slot(i64),
    Close,
}

fn flatten(arena: &mut FragArena, twig: &Twig, out: &mut Vec<Step>) {
    out.push(Step::Open(arena.intern(&twig.name)));
    for part in &twig.parts {
        match part {
            TwigPart::Elem(t) => flatten(arena, t, out),
            TwigPart::Slot(n) => out.push(Step::Slot(i64::from(*n))),
        }
    }
    out.push(Step::Close);
}

/// The text node adjacent atomics are merging into. It belongs to the
/// innermost open element and is written when a node follows or an
/// element opens or closes.
#[derive(Default)]
struct PendingText {
    buf: String,
    /// Slot of the last atomic: the space separator only applies
    /// between atomics of the *same* slot (enclosed expression).
    ord: i64,
    open: bool,
}

impl PendingText {
    fn push(&mut self, s: &str, ord: i64) {
        if self.open && self.ord == ord {
            self.buf.push(' ');
        }
        self.buf.push_str(s);
        self.ord = ord;
        self.open = true;
    }

    fn flush(&mut self, b: &mut TreeBuilder) {
        if self.open {
            b.text(&self.buf);
            self.buf.clear();
            self.open = false;
        }
    }
}

/// Interns constructor names. They are overwhelmingly one literal
/// string attached to every row (the same `Arc<str>` clone), so the last
/// (allocation, id) pair is remembered and a pointer hit skips the
/// intern hash.
#[derive(Default)]
struct NameCache(Option<(*const u8, NameId)>);

impl NameCache {
    fn intern(&mut self, arena: &mut FragArena, name: &Item) -> NameId {
        match name {
            Item::Str(s) => match self.0 {
                Some((p, id)) if std::ptr::eq(p, s.as_ptr()) => id,
                _ => {
                    let id = arena.intern(s);
                    self.0 = Some((s.as_ptr(), id));
                    id
                }
            },
            other => arena.intern(&other.to_xq_string()),
        }
    }
}

/// Rows of `t` as `(iter, row)` in ascending order — the order every
/// constructor emits its nodes in.
fn rows_by_iter(t: &Table) -> Result<Vec<(i64, usize)>, EvalError> {
    let iters = t.col(Col::ITER);
    let mut order = Vec::with_capacity(t.nrows());
    for r in 0..t.nrows() {
        order.push((iters.get_int(r)?, r));
    }
    if !order.is_sorted() {
        order.sort_unstable();
    }
    Ok(order)
}

/// A constructor's result: one `(iter, node)` row per constructed root
/// of fragment `frag`.
fn roots_table(frag: u32, roots: &[(i64, u32)], vec: bool) -> Table {
    Table::new(vec![
        (
            Col::ITER,
            Column::Int(roots.iter().map(|&(it, _)| it).collect()),
        ),
        (
            Col::ITEM,
            Column::from_nodes(
                roots
                    .iter()
                    .map(|&(_, pre)| NodeId::new(frag, pre))
                    .collect(),
                vec,
            ),
        ),
    ])
}

/// Roots between two budget polls of [`eval_element`]: a tripped node
/// ceiling, deadline or cancellation overshoots by at most this many
/// trees, however large the operator's input.
const ROOT_POLL_STRIDE: usize = 2048;

/// The twig kernel: per row of `iterations` one tree shaped like `twig`,
/// every node written once. Content rows are read in `(iter, ord, pos)`
/// order with one forward cursor; slot `n` of an iteration takes its
/// rows with `ord = n` (rows naming no slot are skipped). Within each
/// open element leading attribute nodes become attributes (XQTY0024
/// after content), adjacent atomics merge into one text node — spaced
/// within a slot, not across slots — and nodes are deep-copied (order
/// interaction 2©: sequence order establishes document order).
/// `constructed` is what the execution built before this operator, so
/// the polled node ceiling sees the running total.
pub(crate) fn eval_element(
    arena: &mut FragArena,
    iterations: &Table,
    content: &Table,
    twig: &Twig,
    vec: bool,
    meter: &BudgetMeter,
    constructed: usize,
) -> Result<Table, EvalError> {
    let mut steps = Vec::new();
    flatten(arena, twig, &mut steps);

    let [iters, ords, poss] = [Col::ITER, Col::ORD, Col::POS].map(|c| content.col(c));
    let (iv, ov) = (int_col(&iters)?, int_col(&ords)?);
    let items = content.col(Col::ITEM);
    let n = content.nrows();
    // Row numbers in (iter, ord, pos) order, ties in row order.
    let keys = [&iters, &ords, &poss].map(|c| Key::of(c, false));
    let perm = sorted_perm(n, &keys, vec).unwrap_or_else(|| (0..n as u32).collect());

    // One new fragment holds every tree this invocation constructs, as
    // sibling roots in iter order. Its size is known up front: the
    // skeleton per iteration plus every content node's subtree (atomics
    // over-count slightly — they merge into shared text nodes).
    let order = rows_by_iter(iterations)?;
    let spliced: usize = (0..n)
        .map(|r| match items.get(r) {
            Item::Node(nd) => arena.doc_of(nd).size(nd.pre) as usize + 1,
            _ => 1,
        })
        .sum();
    let mut b = TreeBuilder::new();
    b.reserve(order.len() * twig.elements() + spliced);
    let mut roots: Vec<(i64, u32)> = Vec::with_capacity(order.len());
    let mut text = PendingText::default();
    // First content row of the current iteration; it only moves forward,
    // and a repeated `iter` reads its rows again from here.
    let mut group = 0;
    for (k, &(it, _)) in order.iter().enumerate() {
        if k.is_multiple_of(ROOT_POLL_STRIDE) {
            meter.poll()?;
            meter.check_nodes(constructed + b.len())?;
        }
        while group < n && iv[perm[group] as usize] < it {
            group += 1;
        }
        let mut cur = group;
        roots.push((it, b.len() as u32));
        for step in &steps {
            match *step {
                Step::Open(name) => {
                    text.flush(&mut b);
                    b.open_element(name);
                }
                Step::Close => {
                    text.flush(&mut b);
                    b.close();
                }
                Step::Slot(ord) => {
                    while cur < n {
                        let r = perm[cur] as usize;
                        if iv[r] != it || ov[r] > ord {
                            break;
                        }
                        cur += 1;
                        if ov[r] == ord {
                            splice(arena, &mut b, &mut text, items.get(r), ord)?;
                        }
                    }
                }
            }
        }
    }
    let frag = arena.add(b.finish());
    Ok(roots_table(frag, &roots, vec))
}

/// Append one content item to the innermost open element.
fn splice(
    arena: &FragArena,
    b: &mut TreeBuilder,
    text: &mut PendingText,
    item: Item,
    ord: i64,
) -> Result<(), EvalError> {
    match item {
        Item::Node(n) => {
            let doc = arena.doc_of(n);
            if doc.kind(n.pre) != NodeKind::Attribute {
                text.flush(b);
            } else if b.content_started() || text.open {
                return Err(EvalError::new(
                    ErrorCode::XQTY0024,
                    "attribute node follows element content (XQTY0024)",
                ));
            }
            b.copy_subtree(doc, n.pre);
        }
        Item::Str(s) => text.push(&s, ord),
        atomic => text.push(&atomic.to_xq_string(), ord),
    }
    Ok(())
}

pub(crate) fn eval_attr(
    arena: &mut FragArena,
    names: &Table,
    values: &Table,
    vec: bool,
) -> Result<Table, EvalError> {
    // values: iter|item (one string per iteration; should an iteration
    // carry several, the last row wins). Both inputs are walked in iter
    // order, so one forward cursor pairs them up — no map, and a string
    // value is copied once, into the fragment's text arena.
    let val_items = values.col(Col::ITEM);
    let vals = rows_by_iter(values)?;
    let name_items = names.col(Col::ITEM);
    let order = rows_by_iter(names)?;
    let mut doc = exrquy_xml::Document::new();
    doc.reserve(order.len());
    let mut rows: Vec<(i64, u32)> = Vec::with_capacity(order.len());
    let mut name_ids = NameCache::default();
    let mut cursor = 0;
    for &(it, r) in &order {
        let name_id = name_ids.intern(arena, &name_items.get(r));
        while cursor < vals.len() && vals[cursor].0 < it {
            cursor += 1;
        }
        // The cursor rests on the iteration's first value row, so a
        // repeated `iter` among the names reads the same value again.
        let value = match vals[cursor..].iter().take_while(|v| v.0 == it).last() {
            Some(&(_, vr)) => match val_items.get(vr) {
                Item::Str(s) => s,
                other => other.to_xq_string().into(),
            },
            None => "".into(),
        };
        rows.push((it, doc.push_orphan_attribute(name_id, &value)));
    }
    let frag = arena.add(doc);
    Ok(roots_table(frag, &rows, vec))
}

pub(crate) fn eval_textnode(
    arena: &mut FragArena,
    content: &Table,
    vec: bool,
) -> Result<Table, EvalError> {
    let c_items = content.col(Col::ITEM);
    let mut b = TreeBuilder::new();
    let mut rows: Vec<(i64, u32)> = Vec::new();
    for (it, r) in rows_by_iter(content)? {
        let s = c_items.get(r).to_xq_string();
        // Empty strings construct no text node (the XDM has none).
        if let Some(pre) = b.text(&s) {
            rows.push((it, pre));
        }
    }
    let frag = arena.add(b.finish());
    Ok(roots_table(frag, &rows, vec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_diag::{CancellationToken, ExecutionBudget};
    use exrquy_xml::Catalog;
    use std::sync::Arc;

    fn table(iters: &[i64], items: Vec<Item>) -> Table {
        Table::new(vec![
            (Col::ITER, Column::Int(iters.to_vec())),
            (Col::ITEM, Column::Item(items)),
        ])
    }

    /// The loop relation: one row per iteration.
    fn loop_of(iters: &[i64]) -> Table {
        Table::new(vec![(Col::ITER, Column::Int(iters.to_vec()))])
    }

    /// Content rows as `(iter, ord, pos, item)`, in the order given.
    fn content(rows: Vec<(i64, i64, i64, Item)>) -> Table {
        let ints = |f: fn(&(i64, i64, i64, Item)) -> i64| Column::Int(rows.iter().map(f).collect());
        Table::new(vec![
            (Col::ITER, ints(|r| r.0)),
            (Col::ORD, ints(|r| r.1)),
            (Col::POS, ints(|r| r.2)),
            (
                Col::ITEM,
                Column::Item(rows.iter().map(|r| r.3.clone()).collect()),
            ),
        ])
    }

    fn elem(name: &str, parts: Vec<TwigPart>) -> TwigPart {
        TwigPart::Elem(Twig {
            name: Arc::from(name),
            parts,
        })
    }

    fn twig(name: &str, parts: Vec<TwigPart>) -> Twig {
        Twig {
            name: Arc::from(name),
            parts,
        }
    }

    use TwigPart::Slot;

    fn unmetered() -> BudgetMeter {
        BudgetMeter::new(ExecutionBudget::unbounded(), None)
    }

    /// A source fragment `<s k="v"><x>1</x><y/>t</s>`: `(k, x, y, t)`.
    fn source(arena: &mut FragArena) -> [Item; 4] {
        let mut b = TreeBuilder::new();
        b.open_element(arena.intern("s"));
        b.attribute(arena.intern("k"), "v");
        b.open_element(arena.intern("x"));
        b.text("1");
        b.close();
        b.open_element(arena.intern("y"));
        b.close();
        b.text("t");
        b.close();
        let frag = arena.add(b.finish());
        [1, 2, 4, 5].map(|pre| Item::Node(NodeId::new(frag, pre)))
    }

    /// Run the kernel on both arms: the two must agree, every new
    /// fragment must satisfy the encoding invariants, and the result is
    /// the serialized roots with their iterations (or the error code).
    fn build(
        arena: &mut FragArena,
        twig: &Twig,
        iters: &Table,
        content: &Table,
    ) -> Result<Vec<(i64, String)>, ErrorCode> {
        let arm = |arena: &mut FragArena, vec: bool| {
            let out = eval_element(arena, iters, content, twig, vec, &unmetered(), 0)
                .map_err(|e| e.code)?;
            let dense = matches!(&**out.col(Col::ITEM).data(), Column::Node(_));
            assert_eq!(dense, vec);
            Ok((0..out.nrows())
                .map(|r| {
                    let Item::Node(n) = out.item(Col::ITEM, r) else {
                        panic!("element constructor yields nodes")
                    };
                    arena.doc_of(n).check_invariants().unwrap();
                    let xml = exrquy_xml::serialize::node_to_string(arena, n);
                    (out.int(Col::ITER, r), xml)
                })
                .collect())
        };
        let vectorized = arm(arena, true);
        assert_eq!(vectorized, arm(arena, false), "scalar arm differs");
        vectorized
    }

    fn one(arena: &mut FragArena, twig: &Twig, rows: Vec<(i64, i64, i64, Item)>) -> String {
        let out = build(arena, twig, &loop_of(&[1]), &content(rows)).unwrap();
        assert_eq!(out.len(), 1);
        out[0].1.clone()
    }

    #[test]
    fn slots_splice_in_skeleton_order() {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let [_, x, y, t] = source(&mut arena);
        // <a>{1}<b>{2}</b>{3}</a>: slot 2 empty, slot 1 several nodes.
        let t3 = twig("a", vec![Slot(1), elem("b", vec![Slot(2)]), Slot(3)]);
        let rows = vec![
            (1, 3, 1, t.clone()),
            (1, 1, 2, y.clone()),
            (1, 1, 1, x.clone()),
            (1, 1, 3, x.clone()),
        ];
        assert_eq!(
            one(&mut arena, &t3, rows),
            "<a><x>1</x><y/><x>1</x><b/>t</a>"
        );
        // Rows naming no slot are skipped, wherever they sort.
        let rows = vec![(1, 0, 1, x.clone()), (1, 2, 1, y), (1, 9, 1, x)];
        assert_eq!(one(&mut arena, &t3, rows), "<a><b><y/></b></a>");
    }

    #[test]
    fn atomics_merge_within_an_element_and_space_within_a_slot() {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let (a, b) = (Item::Int(1), Item::str("b"));
        // Adjacent slots: no separator. One slot: a space.
        let two = twig("e", vec![Slot(1), Slot(2)]);
        let rows = vec![(1, 1, 1, a.clone()), (1, 2, 1, b.clone())];
        assert_eq!(one(&mut arena, &two, rows), "<e>1b</e>");
        let rows = vec![(1, 1, 1, a.clone()), (1, 1, 2, b.clone())];
        assert_eq!(one(&mut arena, &two, rows), "<e>1 b</e>");
        // A nested element ends the text node: two text children.
        let split = twig("e", vec![Slot(1), elem("n", vec![]), Slot(2)]);
        let rows = vec![(1, 1, 1, a), (1, 2, 1, b)];
        let xml = one(&mut arena, &split, rows);
        assert_eq!(xml, "<e>1<n/>b</e>");
        let last = arena.frag((arena.overlay_frags() - 1) as u32);
        let kinds: Vec<NodeKind> = last.children(0).map(|c| last.kind(c)).collect();
        assert_eq!(kinds, [NodeKind::Text, NodeKind::Element, NodeKind::Text]);
    }

    #[test]
    fn attributes_lead_each_open_element() {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let [k, x, ..] = source(&mut arena);
        // <a>{x}<b>{k}{x}</b></a>: the nested element starts afresh.
        let t = twig("a", vec![Slot(1), elem("b", vec![Slot(2), Slot(3)])]);
        let rows = vec![
            (1, 1, 1, x.clone()),
            (1, 2, 1, k.clone()),
            (1, 3, 1, x.clone()),
        ];
        assert_eq!(
            one(&mut arena, &t, rows),
            r#"<a><x>1</x><b k="v"><x>1</x></b></a>"#
        );
        // After content — a node or a pending atomic — it is XQTY0024,
        // in the nested element as in the root.
        for first in [x, Item::str("")] {
            let rows = vec![(1, 2, 1, first.clone()), (1, 3, 1, k.clone())];
            let got = build(&mut arena, &t, &loop_of(&[1]), &content(rows));
            assert_eq!(got, Err(ErrorCode::XQTY0024));
            let rows = vec![(1, 1, 1, first), (1, 1, 2, k.clone())];
            let got = build(&mut arena, &t, &loop_of(&[1]), &content(rows));
            assert_eq!(got, Err(ErrorCode::XQTY0024));
        }
        // … and after a nested element closed.
        let after = twig("a", vec![elem("b", vec![]), Slot(1)]);
        let got = build(
            &mut arena,
            &after,
            &loop_of(&[1]),
            &content(vec![(1, 1, 1, k)]),
        );
        assert_eq!(got, Err(ErrorCode::XQTY0024));
    }

    #[test]
    fn iterations_pair_up_whatever_order_they_arrive_in() {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let t = twig("a", vec![elem("b", vec![Slot(1)]), Slot(2)]);
        // Unsorted and repeated iterations; iteration 7 has no content
        // rows, iteration 4 has content but no loop row.
        let iters = loop_of(&[9, 2, 7, 2]);
        let rows = vec![
            (9, 2, 1, Item::str("z")),
            (2, 1, 2, Item::Int(2)),
            (4, 1, 1, Item::str("lost")),
            (9, 1, 1, Item::str("n")),
            (2, 1, 1, Item::Int(1)),
        ];
        let got = build(&mut arena, &t, &iters, &content(rows)).unwrap();
        let want = [
            (2, "<a><b>1 2</b></a>"),
            (2, "<a><b>1 2</b></a>"),
            (7, "<a><b/></a>"),
            (9, "<a><b>n</b>z</a>"),
        ];
        assert_eq!(got, want.map(|(it, s)| (it, s.to_owned())));
    }

    #[test]
    fn deep_skeleton_nests_and_closes() {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let [k, ..] = source(&mut arena);
        let e5 = elem("e5", vec![Slot(2), Slot(3)]);
        let e2 = elem("e2", vec![elem("e3", vec![elem("e4", vec![e5]), Slot(4)])]);
        let t = twig("e1", vec![Slot(1), e2, Slot(5)]);
        assert_eq!(t.elements(), 5);
        let rows = vec![
            (1, 5, 1, Item::str("tail")),
            (1, 4, 1, Item::Int(4)),
            (1, 3, 1, Item::str("in")),
            (1, 2, 1, k),
            (1, 1, 1, Item::str("head")),
        ];
        assert_eq!(
            one(&mut arena, &t, rows),
            r#"<e1>head<e2><e3><e4><e5 k="v">in</e5></e4>4</e3></e2>tail</e1>"#
        );
    }

    /// The kernel polls the meter itself, every `ROOT_POLL_STRIDE` roots:
    /// a trip is reported from inside the operator, with the nodes the
    /// execution had built before it counted in.
    #[test]
    fn budget_and_cancellation_trip_inside_the_operator() {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let t = twig("a", vec![elem("b", vec![elem("c", vec![Slot(1)])])]);
        let iters: Vec<i64> = (1..=3 * ROOT_POLL_STRIDE as i64).collect();
        let (lp, none) = (loop_of(&iters), content(vec![]));
        let mut run = |meter: &BudgetMeter, before: usize| {
            let before_frags = arena.overlay_frags();
            let got = eval_element(&mut arena, &lp, &none, &t, true, meter, before);
            // A tripped operator leaves no fragment behind.
            assert_eq!(arena.overlay_frags() > before_frags, got.is_ok());
            got.map(|out| out.nrows()).map_err(|e| (e.code, e.message))
        };
        assert_eq!(run(&unmetered(), 0), Ok(iters.len()));

        // Under the ceiling until the second poll: 3 nodes a root.
        let cap = 3 * ROOT_POLL_STRIDE - 1;
        let capped = || BudgetMeter::new(ExecutionBudget::unbounded().with_max_nodes(cap), None);
        let (code, message) = run(&capped(), 0).unwrap_err();
        assert_eq!(code, ErrorCode::EXRQ0001);
        let built = format!("constructed {} XML nodes", 3 * ROOT_POLL_STRIDE);
        assert!(message.contains(&built), "{message}");
        // Nodes built earlier in the execution count: the first poll trips.
        let (_, message) = run(&capped(), cap + 1).unwrap_err();
        assert!(
            message.contains(&format!("constructed {} XML", cap + 1)),
            "{message}"
        );

        let token = CancellationToken::new();
        token.cancel();
        let cancelled = BudgetMeter::new(ExecutionBudget::unbounded(), Some(token));
        assert_eq!(run(&cancelled, 0).unwrap_err().0, ErrorCode::EXRQ0002);
        let expired = unmetered().with_hard_deadline(std::time::Instant::now());
        assert_eq!(run(&expired, 0).unwrap_err().0, ErrorCode::EXRQ0007);
    }

    /// Names and values pair up by `iter` whatever order either arrives
    /// in: an iteration without a value gets the empty string, one with
    /// several keeps the last row's, a repeated name iteration reads its
    /// value again.
    #[test]
    fn attr_pairs_names_and_values_by_iter() {
        let id: Arc<str> = Arc::from("id");
        let name = |s: &Arc<str>| Item::Str(Arc::clone(s));
        let names = table(
            &[5, 2, 9, 2, 7],
            vec![
                name(&id),
                name(&id),
                Item::str("other"),
                name(&id),
                Item::Int(4),
            ],
        );
        let values = table(
            &[9, 2, 5, 2, 1],
            vec![
                Item::str("nine"),
                Item::str("first"),
                Item::Dbl(2.5),
                Item::str("last"),
                Item::str("unused"),
            ],
        );
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        for vec in [true, false] {
            let out = eval_attr(&mut arena, &names, &values, vec).unwrap();
            let rendered: Vec<(i64, String)> = (0..out.nrows())
                .map(|r| {
                    let Item::Node(n) = out.item(Col::ITEM, r) else {
                        panic!("attribute constructor yields nodes")
                    };
                    let doc = arena.doc_of(n);
                    let name = arena.resolve_name(doc.name(n.pre)).to_owned();
                    let value = doc.text(n.pre).unwrap();
                    (out.int(Col::ITER, r), format!("{name}={value}"))
                })
                .collect();
            let want = [
                (2, "id=last"),
                (2, "id=last"),
                (5, "id=2.5"),
                (7, "4="),
                (9, "other=nine"),
            ];
            assert_eq!(
                rendered,
                want.map(|(it, s)| (it, s.to_owned())),
                "vec {vec}"
            );
            let dense = matches!(&**out.col(Col::ITEM).data(), Column::Node(_));
            assert_eq!(dense, vec);
        }
    }
}
