//! Incremental construction of encoded fragments.
//!
//! [`TreeBuilder`] is the single write path into the pre/size/level
//! encoding; the XML parser, the XMark generator, and the runtime node
//! constructors (element/attribute/text constructors in compiled plans) all
//! funnel through it. It maintains the open-element stack and back-patches
//! the `size` column when elements close, so a fragment is produced in one
//! left-to-right pass.

use crate::name::NameId;
use crate::tree::{Document, NodeKind, NO_PARENT, NO_TEXT};
use std::sync::Arc;

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
        self.leaf(NodeKind::Attribute, name, value.into())
    }

    /// Append a text node. Empty strings produce no node (the XQuery data
    /// model has no empty text nodes).
    pub fn text(&mut self, content: &str) -> Option<u32> {
        if content.is_empty() {
            return None;
        }
        Some(self.leaf(NodeKind::Text, NameId::NONE, content.into()))
    }

    /// Append a comment node.
    pub fn comment(&mut self, content: &str) -> u32 {
        self.leaf(NodeKind::Comment, NameId::NONE, content.into())
    }

    /// Append a processing-instruction node.
    pub fn processing_instruction(&mut self, target: NameId, content: &str) -> u32 {
        self.leaf(NodeKind::ProcessingInstruction, target, content.into())
    }

    /// Append a childless node holding (a reference to) `content`.
    fn leaf(&mut self, kind: NodeKind, name: NameId, content: Arc<str>) -> u32 {
        if kind == NodeKind::Attribute {
            assert!(!self.open.is_empty(), "attribute() outside an open element");
            assert!(
                !*self.content_started.last().unwrap(),
                "attribute() after element content started"
            );
        }
        let text = self.doc.push_text_data(content);
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
        // parents by the destination pre offset, text indices into the
        // destination's text pool). Subtree sizes are pre-relative and
        // copy unchanged. This replaces the per-node replay — one array
        // extend per column instead of an open/close call per node.
        if src.kind(src_pre) == NodeKind::Element {
            let a = src_pre as usize;
            let b = a + src.size(src_pre) as usize + 1;
            let dst_base = self.doc.len() as u32;
            let level_off = self.level() as i32 - src.level(src_pre) as i32;
            let parent = self.parent();
            self.mark_content();
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
            d.texts.reserve(b - a);
            for &t in &src.texts[a..b] {
                if t == NO_TEXT {
                    d.texts.push(NO_TEXT);
                } else {
                    d.texts.push(d.text_data.len() as u32);
                    d.text_data.push(src.text_data[t as usize].clone());
                }
            }
            return;
        }
        // What remains is a leaf (text, comment, PI or attribute): it
        // shares the source's string — a refcount bump, no allocation.
        let kind = src.kind(src_pre);
        let content: Arc<str> = match src.texts[src_pre as usize] {
            NO_TEXT => "".into(),
            t => src.text_data[t as usize].clone(),
        };
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
