//! The pre/size/level tree encoding.
//!
//! A [`Document`] stores one XML fragment as a struct-of-arrays indexed by
//! *preorder rank* (`pre`), exactly the document-order-preserving node
//! identifiers the paper's Figure 5 relies on. For every node we keep
//!
//! * its [`NodeKind`],
//! * its interned name (elements, attributes, processing instructions),
//! * `size` — the number of nodes in its subtree excluding itself (so the
//!   descendants of `v` occupy exactly the pre ranks `v+1 ..= v+size(v)`),
//! * `level` — its depth, and
//! * `parent` — the pre rank of its parent (`u32::MAX` for the root).
//!
//! Attribute nodes are materialized in the preorder sequence directly after
//! their owner element and before the element's children; this gives
//! attributes stable, document-order-compatible identifiers while axis
//! evaluation simply filters them out everywhere except on the `attribute`
//! axis.
//!
//! String content lives in one [`TextArena`] per document: the values of
//! text, attribute, comment and PI nodes are appended in preorder to a
//! single byte buffer, and the `texts` column holds each node's index
//! into the arena's table of end offsets. Because values are appended in
//! preorder, the text ids of any subtree are one contiguous run, and so
//! are their bytes: a splice copies one byte range, and dropping a
//! document frees a few buffers however many values it holds.

use crate::name::{NameId, NamePool};
use std::fmt;

/// Kind of a node in the encoded tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The (virtual) document root produced by the parser.
    Document,
    Element,
    Attribute,
    Text,
    Comment,
    ProcessingInstruction,
}

impl NodeKind {
    /// Whether nodes of this kind can carry children.
    pub fn can_have_children(self) -> bool {
        matches!(self, NodeKind::Document | NodeKind::Element)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Document => "document",
            NodeKind::Element => "element",
            NodeKind::Attribute => "attribute",
            NodeKind::Text => "text",
            NodeKind::Comment => "comment",
            NodeKind::ProcessingInstruction => "processing-instruction",
        };
        f.write_str(s)
    }
}

/// Sentinel parent rank of root nodes.
pub const NO_PARENT: u32 = u32::MAX;

/// Index into a document's text arena, or `NO_TEXT`.
pub const NO_TEXT: u32 = u32::MAX;

/// The string content of one document: every value appended to one
/// buffer, and the end offset of each in a table indexed by text id
/// (value `t` spans `ends[t - 1]..ends[t]`, from 0 for the first).
/// The layout is private; compare arenas whole with `==`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TextArena {
    bytes: String,
    ends: Vec<u32>,
}

/// `len` as an arena offset. A parsed document cannot get here with
/// more (its input is checked first); a constructed one would have to
/// build 4 GiB of text.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("text arena exceeds 4 GiB")
}

impl TextArena {
    /// Number of values held.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Byte offset where value `t` starts.
    fn start(&self, t: u32) -> u32 {
        match t {
            0 => 0,
            _ => self.ends[t as usize - 1],
        }
    }

    /// Value `t`.
    fn get(&self, t: u32) -> &str {
        self.span(t, t)
    }

    /// Values `first..=last`, concatenated: one slice, since
    /// consecutive values are adjacent in the buffer.
    pub(crate) fn span(&self, first: u32, last: u32) -> &str {
        &self.bytes[self.start(first) as usize..self.ends[last as usize] as usize]
    }

    /// Append `s`, returning its text id.
    pub(crate) fn push(&mut self, s: &str) -> u32 {
        let id = self.ends.len() as u32;
        self.bytes.push_str(s);
        self.ends.push(offset(self.bytes.len()));
        id
    }

    /// Append values `first..=last` of `src` as one byte copy, returning
    /// the id the first of them gets here (the rest follow in order).
    pub(crate) fn extend_from(&mut self, src: &TextArena, first: u32, last: u32) -> u32 {
        let base = self.ends.len() as u32;
        let (from, to) = (src.start(first), self.bytes.len() as u32);
        self.bytes.push_str(src.span(first, last));
        // The shifted ends below are at most the new length.
        offset(self.bytes.len());
        let ends = &src.ends[first as usize..=last as usize];
        self.ends.extend(ends.iter().map(|&e| e - from + to));
        base
    }

    /// Pre-allocate room for `bytes` more bytes in `values` more values.
    pub(crate) fn reserve(&mut self, bytes: usize, values: usize) {
        self.bytes.reserve(bytes);
        self.ends.reserve(values);
    }

    fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// One encoded XML fragment.
///
/// All per-node vectors have identical length; index = preorder rank.
#[derive(Debug, Default, Clone)]
pub struct Document {
    pub kinds: Vec<NodeKind>,
    pub names: Vec<NameId>,
    pub sizes: Vec<u32>,
    pub levels: Vec<u16>,
    pub parents: Vec<u32>,
    /// Per-node index into the text arena (text content of text nodes,
    /// value of attributes, content of comments/PIs); `NO_TEXT`
    /// otherwise. The ids that are set count up from 0 in preorder.
    pub texts: Vec<u32>,
    /// The string content `texts` points into.
    pub(crate) arena: TextArena,
    /// Lazily built per-name element streams (sorted pre rank
    /// lists) — the tag-name-based access paths of TwigStack-style step
    /// evaluation (paper §1). Built on first use by
    /// [`name_streams`](Self::name_streams).
    /// `OnceLock` (not `OnceCell`) so a `Document` stays `Sync`: catalogs
    /// share fragments across query threads, and the first step evaluation
    /// to need the streams may happen on any of them.
    name_streams: std::sync::OnceLock<NameStreams>,
}

/// Per-name sorted preorder streams, addressed by [`NameId`]: one flat
/// array of pre ranks grouped by name plus the group offsets, so a
/// lookup is two array reads — no hashing on the per-group step path.
#[derive(Debug, Default, Clone)]
pub struct NameStreams {
    /// `pres[offsets[n]..offsets[n + 1]]` are the elements named
    /// `NameId(n)`, ascending.
    offsets: Vec<u32>,
    pres: Vec<u32>,
}

impl NameStreams {
    /// Ascending pre ranks of the elements named `name` (empty when the
    /// fragment has none).
    pub fn elements(&self, name: NameId) -> &[u32] {
        let n = name.0 as usize;
        match n.checked_add(1).and_then(|hi| self.offsets.get(hi)) {
            Some(&hi) => &self.pres[self.offsets[n] as usize..hi as usize],
            None => &[],
        }
    }
}

impl Document {
    /// Create an empty fragment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes in the fragment.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the fragment holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kind of node `pre`.
    pub fn kind(&self, pre: u32) -> NodeKind {
        self.kinds[pre as usize]
    }

    /// Name of node `pre` (`NameId::NONE` for unnamed nodes).
    pub fn name(&self, pre: u32) -> NameId {
        self.names[pre as usize]
    }

    /// Subtree size of node `pre` (descendants including attributes,
    /// excluding the node itself).
    pub fn size(&self, pre: u32) -> u32 {
        self.sizes[pre as usize]
    }

    /// Depth of node `pre` (roots are at level 0).
    pub fn level(&self, pre: u32) -> u16 {
        self.levels[pre as usize]
    }

    /// Parent rank of node `pre`, or `None` for roots.
    pub fn parent(&self, pre: u32) -> Option<u32> {
        let p = self.parents[pre as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// String content of a text/attribute/comment/PI node; `None` otherwise.
    pub fn text(&self, pre: u32) -> Option<&str> {
        let t = self.texts[pre as usize];
        (t != NO_TEXT).then(|| self.arena.get(t))
    }

    /// The document's string content, whole.
    pub fn text_arena(&self) -> &TextArena {
        &self.arena
    }

    /// Per-name node streams, built lazily on first access (a counting
    /// and a scattering pass over the fragment). Preorder ranks per list
    /// are ascending by construction.
    pub fn name_streams(&self) -> &NameStreams {
        self.name_streams.get_or_init(|| {
            let named = || {
                (0..self.len() as u32)
                    .filter(|&p| self.kind(p) == NodeKind::Element && self.name(p).is_some())
            };
            // Histogram → prefix sums → scatter; the scan is in pre
            // order, so every group comes out ascending.
            let mut offsets = vec![0u32];
            for p in named() {
                let slot = self.name(p).0 as usize + 1;
                if slot >= offsets.len() {
                    offsets.resize(slot + 1, 0);
                }
                offsets[slot] += 1;
            }
            for n in 1..offsets.len() {
                offsets[n] += offsets[n - 1];
            }
            let mut cursor = offsets.clone();
            let mut pres = vec![0u32; offsets[offsets.len() - 1] as usize];
            for p in named() {
                let c = &mut cursor[self.name(p).0 as usize];
                pres[*c as usize] = p;
                *c += 1;
            }
            NameStreams { offsets, pres }
        })
    }

    /// Iterator over the pre ranks of the children of `pre` (attributes are
    /// *not* children).
    pub fn children(&self, pre: u32) -> ChildIter<'_> {
        ChildIter {
            doc: self,
            next: pre + 1,
            end: pre + 1 + self.size(pre),
        }
    }

    /// Iterator over the attribute nodes of element `pre`.
    ///
    /// Attributes are stored as a contiguous run immediately after their
    /// owner element.
    pub fn attributes(&self, pre: u32) -> impl Iterator<Item = u32> + '_ {
        let end = pre + 1 + self.size(pre);
        (pre + 1..end).take_while(move |&p| self.kind(p) == NodeKind::Attribute)
    }

    /// `true` iff `anc` is a proper ancestor of `desc` (pre/size window
    /// containment check — the heart of staircase join pruning).
    pub fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        anc < desc && desc <= anc + self.size(anc)
    }

    /// Pre-allocate room for `additional` more nodes across all six
    /// encoding columns (bulk constructors know their output size up
    /// front; one reservation beats six growth schedules).
    pub fn reserve(&mut self, additional: usize) {
        self.kinds.reserve(additional);
        self.names.reserve(additional);
        self.sizes.reserve(additional);
        self.levels.reserve(additional);
        self.parents.reserve(additional);
        self.texts.reserve(additional);
    }

    /// Give back the text arena's spare capacity, and column capacity
    /// that a [`reserve`](Self::reserve) overshot by more than half.
    /// Growth by doubling never leaves that much spare, so the latter
    /// only frees an estimate that ran high.
    pub(crate) fn shrink_excess(&mut self) {
        self.arena.shrink_to_fit();
        if self.len() >= self.kinds.capacity() / 2 {
            return;
        }
        self.kinds.shrink_to_fit();
        self.names.shrink_to_fit();
        self.sizes.shrink_to_fit();
        self.levels.shrink_to_fit();
        self.parents.shrink_to_fit();
        self.texts.shrink_to_fit();
    }

    /// Append one node; used by [`crate::builder::TreeBuilder`]. Returns the
    /// new node's pre rank.
    pub(crate) fn push_node(
        &mut self,
        kind: NodeKind,
        name: NameId,
        level: u16,
        parent: u32,
        text: u32,
    ) -> u32 {
        let pre = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.names.push(name);
        self.sizes.push(0);
        self.levels.push(level);
        self.parents.push(parent);
        self.texts.push(text);
        pre
    }

    /// Append a parentless attribute node (a computed attribute
    /// constructor outside any element content creates one). Returns its
    /// pre rank. Only valid on fragments built as flat forests.
    pub fn push_orphan_attribute(&mut self, name: NameId, value: &str) -> u32 {
        let text = self.arena.push(value);
        self.push_node(NodeKind::Attribute, name, 0, NO_PARENT, text)
    }

    /// Debug rendering of the encoding: one line per node, as in the
    /// paper's Figure 5.
    pub fn dump(&self, pool: &NamePool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for pre in 0..self.len() as u32 {
            let name = if self.name(pre).is_some() {
                pool.resolve(self.name(pre)).to_owned()
            } else {
                String::from("-")
            };
            let _ = writeln!(
                out,
                "{:>4} {:<10} {:<12} size={:<4} level={:<2} parent={}",
                pre,
                self.kind(pre).to_string(),
                name,
                self.size(pre),
                self.level(pre),
                self.parent(pre).map_or("-".into(), |p| p.to_string()),
            );
        }
        out
    }

    /// Validate the structural invariants of the encoding (used by tests and
    /// debug assertions): sizes nest properly, levels are consistent with
    /// parents, attribute runs directly follow their elements, text ids
    /// count up in preorder.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len() as u32;
        let mut next_text = 0;
        for pre in 0..n {
            match self.texts[pre as usize] {
                NO_TEXT => {}
                t if t == next_text => next_text += 1,
                t => return Err(format!("node {pre}: text id {t}, expected {next_text}")),
            }
            let size = self.size(pre);
            if pre + size >= n + if size == 0 { 1 } else { 0 } && pre + size > n - 1 {
                return Err(format!("node {pre}: subtree exceeds fragment"));
            }
            if let Some(p) = self.parent(pre) {
                if !self.is_ancestor(p, pre) {
                    return Err(format!("node {pre}: parent {p} window does not cover it"));
                }
                if self.level(pre) != self.level(p) + 1 {
                    return Err(format!("node {pre}: level inconsistent with parent"));
                }
                if self.kind(pre) == NodeKind::Attribute && self.kind(p) != NodeKind::Element {
                    return Err(format!("attribute {pre} not owned by an element"));
                }
            } else if self.level(pre) != 0 {
                return Err(format!("root {pre} not at level 0"));
            }
            // Children windows nest: every node in (pre, pre+size] must have
            // its whole subtree inside the window.
            let end = pre + size;
            let mut c = pre + 1;
            while c <= end {
                if c + self.size(c) > end {
                    return Err(format!("node {c}: subtree escapes parent window of {pre}"));
                }
                c += self.size(c) + 1;
            }
        }
        if next_text as usize != self.arena.len() {
            return Err(format!(
                "{next_text} text ids for {} arena values",
                self.arena.len()
            ));
        }
        Ok(())
    }
}

/// Iterator over child pre ranks, skipping attribute runs and whole
/// subtrees via the `size` column.
pub struct ChildIter<'a> {
    doc: &'a Document,
    next: u32,
    end: u32,
}

impl Iterator for ChildIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.next < self.end {
            let pre = self.next;
            self.next = pre + self.doc.size(pre) + 1;
            if self.doc.kind(pre) != NodeKind::Attribute {
                return Some(pre);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    /// Build the paper's Figure 1 fragment `<a><b><c/><d/></b><c/></a>`.
    fn figure1() -> (Document, NamePool) {
        let mut pool = NamePool::new();
        let mut b = TreeBuilder::new();
        let a = pool.intern("a");
        let bn = pool.intern("b");
        let c = pool.intern("c");
        let d = pool.intern("d");
        b.open_element(a);
        b.open_element(bn);
        b.open_element(c);
        b.close();
        b.open_element(d);
        b.close();
        b.close();
        b.open_element(c);
        b.close();
        b.close();
        (b.finish(), pool)
    }

    #[test]
    fn figure1_preorder_ranks() {
        let (doc, pool) = figure1();
        doc.check_invariants().unwrap();
        // Figure 5 of the paper: a=0, b=1, c1=2, d=3, c2=4.
        assert_eq!(doc.len(), 5);
        assert_eq!(pool.resolve(doc.name(0)), "a");
        assert_eq!(pool.resolve(doc.name(1)), "b");
        assert_eq!(pool.resolve(doc.name(2)), "c");
        assert_eq!(pool.resolve(doc.name(3)), "d");
        assert_eq!(pool.resolve(doc.name(4)), "c");
        assert_eq!(doc.size(0), 4);
        assert_eq!(doc.size(1), 2);
        assert_eq!(doc.size(2), 0);
        // b (rank 1) precedes d (rank 3) in document order (§3).
        assert!(doc.is_ancestor(0, 3));
        assert!(doc.is_ancestor(1, 3));
        assert!(!doc.is_ancestor(1, 4));
    }

    #[test]
    fn children_iteration() {
        let (doc, _) = figure1();
        let kids: Vec<u32> = doc.children(0).collect();
        assert_eq!(kids, vec![1, 4]);
        let kids: Vec<u32> = doc.children(1).collect();
        assert_eq!(kids, vec![2, 3]);
        assert!(doc.children(2).next().is_none());
    }

    #[test]
    fn name_streams_group_elements_by_name_id() {
        let (doc, mut pool) = figure1();
        let streams = doc.name_streams();
        let of = |name: &str| streams.elements(pool.lookup(name).unwrap()).to_vec();
        assert_eq!(of("a"), [0]);
        assert_eq!(of("b"), [1]);
        assert_eq!(of("c"), [2, 4]);
        assert_eq!(of("d"), [3]);
        // A name past the fragment's last, and no name at all.
        assert!(streams.elements(pool.intern("unused")).is_empty());
        assert!(streams.elements(NameId::NONE).is_empty());
        assert!(Document::new()
            .name_streams()
            .elements(NameId(0))
            .is_empty());
    }

    #[test]
    fn levels_and_parents() {
        let (doc, _) = figure1();
        assert_eq!(doc.level(0), 0);
        assert_eq!(doc.level(3), 2);
        assert_eq!(doc.parent(0), None);
        assert_eq!(doc.parent(3), Some(1));
        assert_eq!(doc.parent(4), Some(0));
    }
}
