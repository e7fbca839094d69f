//! Node-construction kernels — the writers. They append fragments to the
//! execution's arena overlay and therefore run on the owning thread only.

use crate::column::Column;
use crate::eval::{int_view, EvalError};
use crate::item::Item;
use crate::table::Table;
use exrquy_algebra::Col;
use exrquy_diag::ErrorCode;
use exrquy_xml::tree::NodeKind;
use exrquy_xml::{FragArena, NameId, NodeId, NodeRead, TreeBuilder};
use std::sync::Arc;

/// `content` rows grouped by `iter` and sorted by `pos` within each
/// group: one global stable sort over (iter, pos) with groups read back
/// as contiguous slices — no hash map, no per-group vector.
struct ContentGroups {
    /// (iter, pos, ord, item), sorted by (iter, pos); ties keep row
    /// order (matching the per-group stable sort this replaces). `ord`
    /// is the content-part tag (0 when the plan carries none).
    rows: Vec<(i64, i64, i64, Item)>,
}

impl ContentGroups {
    fn build(content: &Table) -> Result<Self, EvalError> {
        let n = content.nrows();
        let iters = content.col(Col::ITER);
        let poss = content.col(Col::POS);
        let items = content.col(Col::ITEM);
        let ords = if content.schema().contains(&Col::ORD) {
            Some(content.col(Col::ORD))
        } else {
            None
        };
        let mut rows: Vec<(i64, i64, i64, Item)> = Vec::with_capacity(n);
        // Batch extraction: pull the three integer columns out as
        // slices and dispatch on the item column's representation once,
        // instead of re-branching per row and per column. Non-integer
        // iter/pos/ord columns keep the per-row path (and its exact
        // type-error reporting).
        let (iv, pv) = (int_view(&iters), int_view(&poss));
        let ov = match &ords {
            Some(c) => int_view(c).map(Some),
            None => Some(None),
        };
        if let (Some(iv), Some(pv), Some(ov)) = (iv, pv, ov) {
            let ord = |r: usize| ov.as_ref().map_or(0, |o| o[r]);
            match (&**items.data(), items.sel()) {
                (Column::Item(v), None) => {
                    rows.extend((0..n).map(|r| (iv[r], pv[r], ord(r), v[r].clone())));
                }
                (Column::Item(v), Some(s)) => {
                    rows.extend((0..n).map(|r| (iv[r], pv[r], ord(r), v[s[r] as usize].clone())));
                }
                _ => rows.extend((0..n).map(|r| (iv[r], pv[r], ord(r), items.get(r)))),
            }
        } else {
            for r in 0..n {
                let ord = match &ords {
                    Some(c) => c.get_int(r)?,
                    None => 0,
                };
                rows.push((iters.get_int(r)?, poss.get_int(r)?, ord, items.get(r)));
            }
        }
        if !rows.is_sorted_by_key(|&(it, p, _, _)| (it, p)) {
            rows.sort_by_key(|&(it, p, _, _)| (it, p));
        }
        Ok(ContentGroups { rows })
    }

    /// The content slice of one iteration (empty when it has none), for
    /// callers that ask in ascending `iter` order: `cursor` (start at 0)
    /// only ever moves forward, so a whole constructor is one merge pass
    /// over `rows` instead of two binary searches per element. It rests
    /// on the group's first row, so a repeated `iter` reads it again.
    fn next(&self, cursor: &mut usize, iter: i64) -> &[(i64, i64, i64, Item)] {
        let rows = &self.rows;
        while *cursor < rows.len() && rows[*cursor].0 < iter {
            *cursor += 1;
        }
        let lo = *cursor;
        let len = rows[lo..].iter().take_while(|r| r.0 == iter).count();
        &rows[lo..lo + len]
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

pub(crate) fn eval_element(
    arena: &mut FragArena,
    names: &Table,
    content: &Table,
    vec: bool,
) -> Result<Table, EvalError> {
    let by_iter = ContentGroups::build(content)?;
    // One new fragment holds all elements constructed by this operator
    // invocation, as sibling roots, in iter order.
    let name_items = names.col(Col::ITEM);
    let order = rows_by_iter(names)?;
    let mut b = TreeBuilder::new();
    // The output size is known up front: one element per name row plus
    // every content node's subtree (atomics over-count slightly — they
    // merge into shared text nodes — which only pads the reservation).
    let est: usize = order.len()
        + by_iter
            .rows
            .iter()
            .map(|(_, _, _, it)| match it {
                Item::Node(n) => arena.doc_of(*n).size(n.pre) as usize + 1,
                _ => 1,
            })
            .sum::<usize>();
    b.reserve(est);
    let mut roots: Vec<(i64, u32)> = Vec::with_capacity(order.len());
    let mut name_ids = NameCache::default();
    let mut cursor = 0;
    for &(it, r) in &order {
        let name_id = name_ids.intern(arena, &name_items.get(r));
        let root = b.open_element(name_id);
        let items = by_iter.next(&mut cursor, it);
        if !items.is_empty() {
            build_content(arena, &mut b, items)?;
        }
        b.close();
        roots.push((it, root));
    }
    let frag = arena.add(b.finish());
    Ok(roots_table(frag, &roots, vec))
}

/// Realize a constructor content sequence: leading attribute nodes
/// become attributes, adjacent atomics merge into one text node joined
/// with spaces, nodes are deep-copied (order interaction 2©: sequence
/// order establishes document order).
fn build_content(
    arena: &FragArena,
    b: &mut TreeBuilder,
    items: &[(i64, i64, i64, Item)],
) -> Result<(), EvalError> {
    let mut pending_text: Option<String> = None;
    let mut pending_ord: i64 = 0;
    let mut content_started = false;
    for (_, _, ord, item) in items {
        match item {
            Item::Node(n) => {
                let doc = arena.doc_of(*n);
                if doc.kind(n.pre) == NodeKind::Attribute {
                    if content_started || pending_text.is_some() {
                        return Err(EvalError::new(
                            ErrorCode::XQTY0024,
                            "attribute node follows element content (XQTY0024)",
                        ));
                    }
                    b.copy_subtree(doc, n.pre);
                } else {
                    if let Some(t) = pending_text.take() {
                        b.text(&t);
                    }
                    b.copy_subtree(doc, n.pre);
                    content_started = true;
                }
            }
            atomic => {
                // Atomics merge into one text node; the space separator
                // only applies between atomics of the SAME enclosed
                // expression (content part).
                let s = atomic.to_xq_string();
                match pending_text.as_mut() {
                    Some(t) => {
                        if *ord == pending_ord {
                            t.push(' ');
                        }
                        t.push_str(&s);
                    }
                    None => pending_text = Some(s),
                }
                pending_ord = *ord;
            }
        }
    }
    if let Some(t) = pending_text {
        b.text(&t);
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
    // value is shared with the new attribute, not copied.
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
        let value: Arc<str> = match vals[cursor..].iter().take_while(|v| v.0 == it).last() {
            Some(&(_, vr)) => match val_items.get(vr) {
                Item::Str(s) => s,
                other => other.to_xq_string().into(),
            },
            None => "".into(),
        };
        rows.push((it, doc.push_orphan_attribute(name_id, value)));
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
    use exrquy_xml::Catalog;

    fn table(iters: &[i64], items: Vec<Item>) -> Table {
        Table::new(vec![
            (Col::ITER, Column::Int(iters.to_vec())),
            (Col::ITEM, Column::Item(items)),
        ])
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
