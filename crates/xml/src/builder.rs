//! Incremental construction of encoded fragments.
//!
//! [`TreeBuilder`] is the single write path into the pre/size/level
//! encoding; the XML parser, the XMark generator, and the runtime node
//! constructors (element/attribute/text constructors in compiled plans) all
//! funnel through it. It maintains the open-element stack and back-patches
//! the `size` column when elements close, so a fragment is produced in one
//! left-to-right pass.
//!
//! String content is appended to the document's text arena in the same
//! pass, so text ids follow preorder and a copied subtree's text is one
//! byte range of its source's arena.

use crate::name::NameId;
use crate::tree::{Document, NodeKind, NO_PARENT, NO_TEXT};

/// Streaming builder for one [`Document`] fragment.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    doc: Document,
    /// Stack of open nodes (pre ranks).
    open: Vec<u32>,
    /// Set once a non-attribute child has been appended to the top element;
    /// attributes may only appear before any other content.
    content_started: Vec<bool>,
}

impl TreeBuilder {
    /// Start building an empty fragment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fragment with a document root node (what `fn:doc()` returns).
    pub fn new_document() -> Self {
        let mut b = Self::new();
        b.push(NodeKind::Document, NameId::NONE, NO_TEXT);
        b.open.push(0);
        b.content_started.push(false);
        b
    }

    fn level(&self) -> u16 {
        self.open.len() as u16
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    fn push(&mut self, kind: NodeKind, name: NameId, text: u32) -> u32 {
        let level = self.level();
        let parent = self.parent();
        self.doc.push_node(kind, name, level, parent, text)
    }

    /// Pre-allocate room for `additional` more nodes (see
    /// [`Document::reserve`]).
    pub fn reserve(&mut self, additional: usize) {
        self.doc.reserve(additional);
    }

    /// Pre-allocate room for `bytes` more bytes of string content in
    /// `values` more text, attribute, comment or PI values.
    pub(crate) fn reserve_text(&mut self, bytes: usize, values: usize) {
        self.doc.arena.reserve(bytes, values);
    }

    /// Nodes written so far.
    pub fn len(&self) -> usize {
        self.doc.len()
    }

    /// True until the first node is written.
    pub fn is_empty(&self) -> bool {
        self.doc.len() == 0
    }

    /// Has the innermost open element received a non-attribute child?
    /// Attributes may only be appended while it has not.
    pub fn content_started(&self) -> bool {
        self.content_started.last().is_some_and(|&started| started)
    }

    /// Open an element node; subsequent nodes become its attributes /
    /// children until [`close`](Self::close).
    pub fn open_element(&mut self, name: NameId) -> u32 {
        let pre = self.push(NodeKind::Element, name, NO_TEXT);
        self.mark_content();
        self.open.push(pre);
        self.content_started.push(false);
        pre
    }

    /// Close the most recently opened element (or document root),
    /// back-patching its subtree size.
    pub fn close(&mut self) -> u32 {
        let pre = self.open.pop().expect("close() without open element");
        self.content_started.pop();
        let last = self.doc.len() as u32 - 1;
        self.doc.sizes[pre as usize] = last - pre;
        pre
    }

    /// Append an attribute to the currently open element. Panics if element
    /// content has already started (attributes precede children in the
    /// encoding).
    pub fn attribute(&mut self, name: NameId, value: &str) -> u32 {
        self.leaf(NodeKind::Attribute, name, value)
    }

    /// Append a text node. Empty strings produce no node (the XQuery data
    /// model has no empty text nodes).
    pub fn text(&mut self, content: &str) -> Option<u32> {
        if content.is_empty() {
            return None;
        }
        Some(self.leaf(NodeKind::Text, NameId::NONE, content))
    }

    /// Append a comment node.
    pub fn comment(&mut self, content: &str) -> u32 {
        self.leaf(NodeKind::Comment, NameId::NONE, content)
    }

    /// Append a processing-instruction node.
    pub fn processing_instruction(&mut self, target: NameId, content: &str) -> u32 {
        self.leaf(NodeKind::ProcessingInstruction, target, content)
    }

    /// Append a childless node holding a copy of `content`.
    fn leaf(&mut self, kind: NodeKind, name: NameId, content: &str) -> u32 {
        if kind == NodeKind::Attribute {
            assert!(!self.open.is_empty(), "attribute() outside an open element");
            assert!(
                !*self.content_started.last().unwrap(),
                "attribute() after element content started"
            );
        }
        let text = self.doc.arena.push(content);
        let pre = self.push(kind, name, text);
        if kind != NodeKind::Attribute {
            self.mark_content();
        }
        pre
    }

    /// Copy the subtree rooted at `src_pre` of `src` into the current
    /// position (deep node copy, as required by XQuery constructor
    /// semantics: content nodes are *copied* into the new fragment —
    /// the paper's Expression (3) depends on this).
    pub fn copy_subtree(&mut self, src: &Document, src_pre: u32) {
        // Copying a document node copies its children (a document node is
        // transparent for constructor content).
        if src.kind(src_pre) == NodeKind::Document {
            for c in src.children(src_pre) {
                self.copy_subtree(src, c);
            }
            return;
        }
        // Element subtrees splice columnar: the pre-order window
        // [src_pre, src_pre + size] lands verbatim except for three
        // rebased columns (levels shift by the destination depth,
        // parents by the destination pre offset, text ids by the
        // destination arena's length). Subtree sizes are pre-relative and
        // copy unchanged. The window's text ids are one contiguous run,
        // so its string content is one byte range of the source arena,
        // copied whole.
        if src.kind(src_pre) == NodeKind::Element {
            let a = src_pre as usize;
            let b = a + src.size(src_pre) as usize + 1;
            let dst_base = self.doc.len() as u32;
            let level_off = self.level() as i32 - src.level(src_pre) as i32;
            let parent = self.parent();
            self.mark_content();
            let window = &src.texts[a..b];
            let (first, base) = match (
                window.iter().find(|&&t| t != NO_TEXT),
                window.iter().rfind(|&&t| t != NO_TEXT),
            ) {
                (Some(&first), Some(&last)) => {
                    (first, self.doc.arena.extend_from(&src.arena, first, last))
                }
                _ => (0, 0),
            };
            let d = &mut self.doc;
            d.kinds.extend_from_slice(&src.kinds[a..b]);
            d.names.extend_from_slice(&src.names[a..b]);
            d.sizes.extend_from_slice(&src.sizes[a..b]);
            d.levels.extend(
                src.levels[a..b]
                    .iter()
                    .map(|&l| (l as i32 + level_off) as u16),
            );
            d.parents
                .extend(src.parents[a..b].iter().enumerate().map(|(i, &p)| {
                    if i == 0 {
                        parent
                    } else {
                        p - src_pre + dst_base
                    }
                }));
            d.texts.extend(window.iter().map(|&t| match t {
                NO_TEXT => NO_TEXT,
                t => t - first + base,
            }));
            return;
        }
        // What remains is a leaf (text, comment, PI or attribute).
        let kind = src.kind(src_pre);
        let content = src.text(src_pre).unwrap_or("");
        if kind != NodeKind::Text || !content.is_empty() {
            self.leaf(kind, src.name(src_pre), content);
        }
    }

    fn mark_content(&mut self) {
        if let Some(flag) = self.content_started.last_mut() {
            *flag = true;
        }
    }

    /// Finish building. Panics if elements remain open (other than an
    /// implicit document root, which is closed automatically).
    pub fn finish(mut self) -> Document {
        if self.open.len() == 1 && self.doc.kind(self.open[0]) == NodeKind::Document {
            self.close();
        }
        assert!(self.open.is_empty(), "finish() with unclosed elements");
        debug_assert!(self.doc.check_invariants().is_ok());
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NamePool;

    #[test]
    fn builds_nested_fragment_with_attributes() {
        let mut pool = NamePool::new();
        let mut b = TreeBuilder::new();
        let e = pool.intern("e");
        let pos = pool.intern("pos");
        b.open_element(e);
        b.attribute(pos, "1");
        b.text("a");
        b.close();
        let doc = b.finish();
        doc.check_invariants().unwrap();
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.kind(0), NodeKind::Element);
        assert_eq!(doc.kind(1), NodeKind::Attribute);
        assert_eq!(doc.text(1), Some("1"));
        assert_eq!(doc.kind(2), NodeKind::Text);
        assert_eq!(doc.text(2), Some("a"));
        assert_eq!(doc.size(0), 2);
        // Attributes are not children.
        let kids: Vec<u32> = doc.children(0).collect();
        assert_eq!(kids, vec![2]);
        let attrs: Vec<u32> = doc.attributes(0).collect();
        assert_eq!(attrs, vec![1]);
    }

    #[test]
    fn document_root_closes_implicitly() {
        let mut pool = NamePool::new();
        let mut b = TreeBuilder::new_document();
        b.open_element(pool.intern("r"));
        b.close();
        let doc = b.finish();
        assert_eq!(doc.kind(0), NodeKind::Document);
        assert_eq!(doc.size(0), 1);
        assert_eq!(doc.parent(1), Some(0));
    }

    #[test]
    fn empty_text_is_dropped() {
        let mut pool = NamePool::new();
        let mut b = TreeBuilder::new();
        b.open_element(pool.intern("r"));
        assert!(b.text("").is_none());
        b.close();
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn copy_subtree_is_deep() {
        let mut pool = NamePool::new();
        let (a, bn, c) = (pool.intern("a"), pool.intern("b"), pool.intern("c"));
        let mut b1 = TreeBuilder::new();
        b1.open_element(a);
        b1.open_element(bn);
        b1.text("x");
        b1.close();
        b1.open_element(c);
        b1.close();
        b1.close();
        let src = b1.finish();

        let mut b2 = TreeBuilder::new();
        b2.open_element(pool.intern("e"));
        b2.copy_subtree(&src, 1); // copy <b>x</b>
        b2.copy_subtree(&src, 0); // copy whole <a> tree
        b2.close();
        let dst = b2.finish();
        dst.check_invariants().unwrap();
        // e, b, x, a, b, x, c
        assert_eq!(dst.len(), 7);
        assert_eq!(dst.name(1), bn);
        assert_eq!(dst.text(2), Some("x"));
        assert_eq!(dst.name(3), a);
        assert_eq!(dst.size(3), 3);
    }

    /// Splices from two documents into a builder whose arena already
    /// holds text: every spliced node keeps its source's text, and the
    /// spliced roots serialize exactly as their sources do.
    #[test]
    fn splices_from_two_documents_keep_every_value() {
        use crate::parse::parse_document;
        use crate::serialize::serialize_subtree;

        let mut pool = NamePool::new();
        let src1 = parse_document(
            "<a x=\"&lt;1&gt;\">t&amp;u<!--note--><b y='2'>v&#65;<?pi data?></b>w</a>",
            &mut pool,
        )
        .unwrap();
        let mut b2 = TreeBuilder::new();
        b2.open_element(pool.intern("c"));
        b2.attribute(pool.intern("z"), "\"q\"");
        b2.text("one");
        b2.comment("two");
        b2.close();
        let mut src2 = b2.finish();
        let orphan = src2.push_orphan_attribute(pool.intern("o"), "free & clear");
        src2.check_invariants().unwrap();

        let b_name = pool.intern("b");
        let first = |hit: &dyn Fn(u32) -> bool| (0..src1.len() as u32).find(|&p| hit(p)).unwrap();
        let of_kind = |kind| first(&|p| src1.kind(p) == kind);
        let splices = [
            (&src2, orphan),
            (&src1, 1),
            (&src1, first(&|p| src1.name(p) == b_name)),
            (&src1, of_kind(NodeKind::Text)),
            (&src1, of_kind(NodeKind::Comment)),
            (&src1, of_kind(NodeKind::ProcessingInstruction)),
            (&src2, 0),
            (&src1, 1),
        ];

        let mut b = TreeBuilder::new();
        b.open_element(pool.intern("r"));
        b.attribute(pool.intern("held"), "before");
        let mut roots = Vec::new();
        for (i, &(src, pre)) in splices.iter().enumerate() {
            if i == 1 {
                b.text("lead");
            }
            roots.push(b.len() as u32);
            b.copy_subtree(src, pre);
        }
        b.close();
        let dst = b.finish();
        dst.check_invariants().unwrap();

        let (mut want, mut got) = (String::new(), String::new());
        for (&(src, pre), &at) in splices.iter().zip(&roots) {
            for i in 0..=src.size(pre) {
                let (s, d) = (pre + i, at + i);
                assert_eq!(dst.kind(d), src.kind(s), "node {d}");
                assert_eq!(dst.name(d), src.name(s), "node {d}");
                assert_eq!(dst.text(d), src.text(s), "node {d}");
            }
            serialize_subtree(src, pre, &pool, &mut want);
            serialize_subtree(&dst, at, &pool, &mut got);
        }
        assert_eq!(got, want);
        assert_eq!(dst.text(1), Some("before"));
        assert_eq!(dst.text(roots[1] - 1), Some("lead"));
    }

    #[test]
    #[should_panic(expected = "attribute() after element content")]
    fn attribute_after_content_panics() {
        let mut pool = NamePool::new();
        let mut b = TreeBuilder::new();
        b.open_element(pool.intern("r"));
        b.text("hi");
        b.attribute(pool.intern("x"), "1");
    }
}
