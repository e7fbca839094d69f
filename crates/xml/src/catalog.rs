//! Shared immutable catalogs and per-execution fragment overlays.
//!
//! XQuery evaluation reads documents and *creates* new XML fragments
//! (element/text constructors). The two concerns have opposite lifecycles
//! — documents outlive queries, constructed fragments die with one — so
//! they live in two layers:
//!
//! * [`Catalog`] — the immutable base: parsed documents, the frozen
//!   [`NamePool`] they were interned against, and the `fn:doc()` URL map.
//!   A catalog is `Send + Sync` and meant to be shared as
//!   `Arc<Catalog>` by any number of concurrent query executions.
//! * [`FragArena`] — the per-execution overlay: it owns every fragment
//!   (and every name) a single evaluation constructs. Node resolution
//!   consults the overlay for fragment ids beyond the catalog's range, so
//!   constructed nodes and base nodes coexist in one id space. When the
//!   execution ends the arena is simply dropped — there is no rollback
//!   (`truncate_frags`) and structurally no way for one query's fragments
//!   to leak into the catalog or into another query.
//!
//! A [`NodeId`] — `(fragment, preorder rank)` — is the document-order-
//! preserving node identifier that flows through the relational plans
//! (the `item` column of the paper's `iter|pos|item` tables).

use crate::name::{NameId, NamePool};
use crate::parse::{parse_document, ParseError};
use crate::stats::{self, CatalogStats};
use crate::tree::Document;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Global node identifier. Lexicographic order on `(frag, pre)` is the
/// document order the relational plans rely on (the paper's "order-
/// preserving node identifiers", §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Fragment index: catalog fragments first, overlay fragments after.
    pub frag: u32,
    /// Preorder rank within the fragment.
    pub pre: u32,
}

impl NodeId {
    /// Construct a node id.
    pub fn new(frag: u32, pre: u32) -> Self {
        Self { frag, pre }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.frag, self.pre)
    }
}

/// Read access to encoded nodes and interned names, implemented by both
/// layers ([`Catalog`], [`FragArena`]). Serialization, atomization and
/// the runtime functions are generic over this, so they work against a
/// bare catalog and against an overlay alike.
pub trait NodeRead {
    /// Access fragment `frag`.
    fn frag(&self, frag: u32) -> &Document;

    /// Resolve an interned name.
    fn resolve_name(&self, id: NameId) -> &str;

    /// Access the fragment containing `node`.
    fn doc_of(&self, node: NodeId) -> &Document {
        self.frag(node.frag)
    }
}

/// The immutable document layer: parsed documents, a frozen name pool,
/// the `fn:doc()` URL map, and the shard layout — a partition of the
/// fragment range into contiguous, ascending shards. Cheap to clone
/// (fragments and pool are behind `Arc`s) and shareable across threads.
#[derive(Debug, Clone)]
pub struct Catalog {
    frags: Vec<Arc<Document>>,
    pool: Arc<NamePool>,
    docs: HashMap<String, NodeId>,
    /// Shard boundaries: shard `i` covers fragments
    /// `shards[i]..shards[i+1]`; always `shards[0] == 0` and
    /// `*shards.last() == frag_count()`. Contiguity + ascending order is
    /// what makes a shard-major concatenation of per-shard results equal
    /// to global document/collection order.
    shards: Vec<u32>,
    /// Statistics snapshot for cost-based planning, computed once on
    /// first use (see [`stats`](Self::stats)). Lives on the catalog so it
    /// is invalidated by exactly the same executor swap that invalidates
    /// the plan cache.
    stats: OnceLock<Arc<CatalogStats>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            frags: Vec::new(),
            pool: Arc::default(),
            docs: HashMap::new(),
            shards: vec![0, 0],
            stats: OnceLock::new(),
        }
    }
}

impl Catalog {
    /// An empty catalog (no documents, no names, one empty shard).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start building a catalog from scratch.
    pub fn builder() -> CatalogBuilder {
        CatalogBuilder::default()
    }

    /// A builder seeded with this catalog's contents — the staging area
    /// for (re)loading documents: mutate the builder freely, then swap the
    /// built catalog in. A failed load leaves the original untouched.
    pub fn to_builder(&self) -> CatalogBuilder {
        CatalogBuilder {
            frags: self.frags.clone(),
            pool: (*self.pool).clone(),
            docs: self.docs.clone(),
            shards: self.shard_count(),
        }
    }

    /// Number of base fragments.
    pub fn frag_count(&self) -> usize {
        self.frags.len()
    }

    /// Whether the catalog holds no documents.
    pub fn is_empty(&self) -> bool {
        self.frags.is_empty()
    }

    /// Total node count over all base documents.
    pub fn total_nodes(&self) -> usize {
        self.frags.iter().map(|d| d.len()).sum()
    }

    /// Number of shards in the layout (≥ 1; empty shards are legal when
    /// there are more shards than documents).
    pub fn shard_count(&self) -> usize {
        self.shards.len() - 1
    }

    /// Shard boundaries (see the field doc on `shards`).
    pub fn shard_bounds(&self) -> &[u32] {
        &self.shards
    }

    /// Fragment range `[lo, hi)` of shard `i`.
    pub fn shard_range(&self, i: usize) -> (u32, u32) {
        (self.shards[i], self.shards[i + 1])
    }

    /// Deterministic hash of the shard layout (boundaries + fragment
    /// count). Part of the plan-cache key: compiled plans embed per-shard
    /// fragment ranges, so two layouts over the same corpus must never
    /// share a cache entry.
    pub fn layout_signature(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.frags.len().hash(&mut h);
        self.shards.hash(&mut h);
        h.finish()
    }

    /// URL registered for fragment `frag`, if it is a document root.
    pub fn frag_url(&self, frag: u32) -> Option<&str> {
        self.docs
            .iter()
            .find(|(_, node)| node.frag == frag)
            .map(|(url, _)| url.as_str())
    }

    /// The frozen name pool documents were interned against.
    pub fn pool(&self) -> &NamePool {
        &self.pool
    }

    /// Shared handle to the frozen pool (the compiler's starting
    /// snapshot).
    pub fn pool_arc(&self) -> Arc<NamePool> {
        Arc::clone(&self.pool)
    }

    /// Root node registered under `url`, if any.
    pub fn doc_root(&self, url: &str) -> Option<NodeId> {
        self.docs.get(url).copied()
    }

    /// Statistics for cost-based planning, frozen per catalog snapshot:
    /// the first call walks every fragment exactly; every later call
    /// returns the same `Arc`.
    pub fn stats(&self) -> Arc<CatalogStats> {
        Arc::clone(self.stats.get_or_init(|| {
            let per = self.frags.iter().map(|d| stats::stats_of_document(d));
            Arc::new(stats::aggregate(per.collect()))
        }))
    }
}

impl NodeRead for Catalog {
    fn frag(&self, frag: u32) -> &Document {
        &self.frags[frag as usize]
    }

    fn resolve_name(&self, id: NameId) -> &str {
        self.pool.resolve(id)
    }
}

/// Mutable staging area for building a [`Catalog`]. Documents are parsed
/// into the builder; nothing becomes visible to readers until
/// [`build`](Self::build) produces the immutable catalog.
#[derive(Debug)]
pub struct CatalogBuilder {
    frags: Vec<Arc<Document>>,
    pool: NamePool,
    docs: HashMap<String, NodeId>,
    /// Desired shard count; [`build`](Self::build) turns it into
    /// contiguous near-equal fragment ranges.
    shards: usize,
}

impl Default for CatalogBuilder {
    fn default() -> Self {
        CatalogBuilder {
            frags: Vec::new(),
            pool: NamePool::default(),
            docs: HashMap::new(),
            shards: 1,
        }
    }
}

impl CatalogBuilder {
    /// Parse `xml` and register it under `url`. Re-loading an existing
    /// URL replaces the previous document *in place* (same fragment
    /// index), so node ids of other documents stay valid. On a parse
    /// error nothing is registered — the builder is unchanged except for
    /// names the aborted parse may have interned, which are harmless.
    pub fn load_str(&mut self, url: &str, xml: &str) -> Result<NodeId, ParseError> {
        let doc = parse_document(xml, &mut self.pool)?;
        Ok(self.insert(url, doc))
    }

    /// Register an already-encoded document under `url` (same replace
    /// semantics as [`load_str`](Self::load_str)).
    pub fn insert(&mut self, url: &str, doc: Document) -> NodeId {
        let doc = Arc::new(doc);
        let node = match self.docs.get(url) {
            Some(old) => {
                self.frags[old.frag as usize] = doc;
                *old
            }
            None => {
                let frag = self.frags.len() as u32;
                self.frags.push(doc);
                NodeId::new(frag, 0)
            }
        };
        self.docs.insert(url.to_string(), node);
        node
    }

    /// Set the shard count the built catalog partitions its fragments
    /// into (clamped to ≥ 1). More shards than documents is legal — the
    /// surplus shards are empty.
    pub fn set_shards(&mut self, n: usize) -> &mut Self {
        self.shards = n.max(1);
        self
    }

    /// Freeze into an immutable, shareable catalog. Shard boundaries are
    /// computed here: `k` contiguous ranges balanced by *node count*, so
    /// one fat document does not land a whole corpus's work on shard 0
    /// the way a fragment-count split would.
    pub fn build(self) -> Catalog {
        let weights: Vec<u64> = self.frags.iter().map(|d| (d.len() as u64).max(1)).collect();
        let shards = balanced_bounds(&weights, self.shards);
        Catalog {
            frags: self.frags,
            pool: Arc::new(self.pool),
            docs: self.docs,
            shards,
            stats: OnceLock::new(),
        }
    }
}

/// Shard boundaries balancing cumulative node weight: boundary `i` lands
/// on the fragment index whose cumulative weight is nearest `i·W/k`,
/// ties toward the lower index — which reproduces the historical
/// `⌊i·n/k⌋` fragment-count split on uniform corpora (all the fixed test
/// layouts), while skewed corpora get genuinely balanced shards.
fn balanced_bounds(weights: &[u64], k: usize) -> Vec<u32> {
    let n = weights.len();
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut cum: Vec<u128> = Vec::with_capacity(n + 1);
    cum.push(0);
    for &w in weights {
        cum.push(cum.last().unwrap() + w as u128);
    }
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0u32);
    let mut prev = 0usize;
    for i in 1..k {
        // Compare k·cum[j] against i·W to stay in integer arithmetic.
        let target = i as u128 * total;
        let mut best = prev;
        let mut best_d = u128::MAX;
        for (j, &c) in cum.iter().enumerate().skip(prev) {
            let d = (c * k as u128).abs_diff(target);
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        prev = best;
        bounds.push(best as u32);
    }
    bounds.push(n as u32);
    bounds
}

/// The per-execution overlay: owns every fragment and name one query
/// evaluation constructs, on top of a shared [`Catalog`].
///
/// Fragment ids `0..catalog.frag_count()` resolve to the catalog; higher
/// ids to the overlay, in creation order — so overlay nodes sort after
/// all base nodes in document order, exactly as freshly constructed
/// trees must. Dropping the arena releases everything the execution
/// built; the catalog is never touched.
#[derive(Debug)]
pub struct FragArena {
    catalog: Arc<Catalog>,
    base_frags: u32,
    frags: Vec<Document>,
    /// Immutable name snapshot (the catalog pool, or a prepared plan's
    /// extension of it); ids below `names_base.len()` resolve here.
    names_base: Arc<NamePool>,
    /// Names interned during this execution, ids `names_base.len()..`.
    names_added: Vec<String>,
    names_index: HashMap<String, NameId>,
}

impl FragArena {
    /// Fresh overlay over `catalog`, resolving names against the
    /// catalog's own pool.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let names = catalog.pool_arc();
        Self::with_names(catalog, names)
    }

    /// Fresh overlay resolving names against `names` — a snapshot that
    /// must extend the catalog's pool (same ids for the shared prefix),
    /// e.g. the name snapshot a compiled plan carries.
    pub fn with_names(catalog: Arc<Catalog>, names: Arc<NamePool>) -> Self {
        debug_assert!(names.len() >= catalog.pool().len());
        FragArena {
            base_frags: catalog.frag_count() as u32,
            catalog,
            frags: Vec::new(),
            names_base: names,
            names_added: Vec::new(),
            names_index: HashMap::new(),
        }
    }

    /// The shared base layer.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Append a constructed fragment, returning its global fragment id.
    pub fn add(&mut self, doc: Document) -> u32 {
        let id = self.base_frags + self.frags.len() as u32;
        self.frags.push(doc);
        id
    }

    /// Number of fragments constructed in this overlay.
    pub fn overlay_frags(&self) -> usize {
        self.frags.len()
    }

    /// Nodes constructed in this overlay (the budget ceiling applies to
    /// this, not to the catalog's base documents).
    pub fn constructed_nodes(&self) -> usize {
        self.frags.iter().map(|d| d.len()).sum()
    }

    /// Total node count, base documents plus overlay.
    pub fn total_nodes(&self) -> usize {
        self.catalog.total_nodes() + self.constructed_nodes()
    }

    /// Intern `name`: resolves against the snapshot first, then the
    /// overlay's own additions, growing the overlay when unseen.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.names_base.lookup(name) {
            return id;
        }
        if let Some(&id) = self.names_index.get(name) {
            return id;
        }
        let id = NameId((self.names_base.len() + self.names_added.len()) as u32);
        self.names_added.push(name.to_owned());
        self.names_index.insert(name.to_owned(), id);
        id
    }

    /// Look up a name without interning it.
    pub fn lookup_name(&self, name: &str) -> Option<NameId> {
        self.names_base
            .lookup(name)
            .or_else(|| self.names_index.get(name).copied())
    }
}

impl NodeRead for FragArena {
    fn frag(&self, frag: u32) -> &Document {
        if frag < self.base_frags {
            self.catalog.frag(frag)
        } else {
            &self.frags[(frag - self.base_frags) as usize]
        }
    }

    fn resolve_name(&self, id: NameId) -> &str {
        let i = id.0 as usize;
        if i < self.names_base.len() {
            self.names_base.resolve(id)
        } else {
            &self.names_added[i - self.names_base.len()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_order_across_fragments() {
        // Fragment order is creation order: a node of fragment 0 precedes
        // every node of fragment 1.
        let a = NodeId::new(0, 99);
        let b = NodeId::new(1, 0);
        assert!(a < b);
        let c = NodeId::new(0, 3);
        assert!(c < a);
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = Catalog::builder();
        let root = b.load_str("a.xml", "<a><b/><c/></a>").unwrap();
        let cat = b.build();
        assert_eq!(root, NodeId::new(0, 0));
        assert_eq!(cat.frag_count(), 1);
        assert_eq!(cat.doc_of(root).len(), 4); // doc node + 3 elements
        assert_eq!(cat.total_nodes(), 4);
        assert_eq!(cat.doc_root("a.xml"), Some(root));
        assert_eq!(cat.doc_root("b.xml"), None);
    }

    #[test]
    fn reload_replaces_in_place() {
        let mut b = Catalog::builder();
        b.load_str("a.xml", "<a/>").unwrap();
        let other = b.load_str("b.xml", "<b><x/></b>").unwrap();
        let replaced = b.load_str("a.xml", "<a><y/><z/></a>").unwrap();
        let cat = b.build();
        // Same fragment index, other documents untouched.
        assert_eq!(replaced.frag, 0);
        assert_eq!(cat.frag_count(), 2);
        assert_eq!(cat.doc_root("b.xml"), Some(other));
        assert_eq!(cat.doc_of(replaced).len(), 4);
    }

    #[test]
    fn failed_reload_leaves_builder_consistent() {
        let mut b = Catalog::builder();
        b.load_str("a.xml", "<a><x/></a>").unwrap();
        assert!(b.load_str("a.xml", "<broken").is_err());
        let cat = b.build();
        assert_eq!(cat.frag_count(), 1);
        assert_eq!(cat.doc_of(cat.doc_root("a.xml").unwrap()).len(), 3);
    }

    #[test]
    fn arena_overlays_catalog() {
        let mut b = Catalog::builder();
        b.load_str("a.xml", "<a><b/></a>").unwrap();
        let cat = Arc::new(b.build());
        let mut arena = FragArena::new(Arc::clone(&cat));
        let mut doc = Document::new();
        let name = arena.intern("made");
        doc.push_orphan_attribute(name, "v");
        let frag = arena.add(doc);
        assert_eq!(frag, 1); // overlay ids start after catalog fragments
        assert_eq!(arena.frag(0).len(), 3);
        assert_eq!(arena.frag(1).len(), 1);
        assert_eq!(arena.constructed_nodes(), 1);
        assert_eq!(arena.total_nodes(), 4);
        // The catalog itself is untouched by overlay growth.
        drop(arena);
        assert_eq!(cat.total_nodes(), 3);
    }

    #[test]
    fn arena_names_extend_the_snapshot() {
        let mut b = Catalog::builder();
        b.load_str("a.xml", "<a><b/></a>").unwrap();
        let cat = Arc::new(b.build());
        let base_len = cat.pool().len();
        let mut arena = FragArena::new(Arc::clone(&cat));
        // Existing names resolve to their catalog ids.
        assert_eq!(arena.intern("a"), cat.pool().lookup("a").unwrap());
        // New names get fresh ids past the snapshot and resolve back.
        let fresh = arena.intern("zzz");
        assert_eq!(fresh.0 as usize, base_len);
        assert_eq!(arena.intern("zzz"), fresh);
        assert_eq!(arena.resolve_name(fresh), "zzz");
        assert_eq!(arena.lookup_name("zzz"), Some(fresh));
        assert_eq!(arena.lookup_name("nope"), None);
        // Catalog pool is frozen — unchanged by arena interning.
        assert_eq!(cat.pool().len(), base_len);
    }

    #[test]
    fn catalog_and_arena_are_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Catalog>();
        assert_send_sync::<Arc<Catalog>>();
        assert_send_sync::<FragArena>();
    }

    #[test]
    fn shard_layout_partitions_fragments() {
        let mut b = Catalog::builder();
        for i in 0..5 {
            b.load_str(&format!("d{i}.xml"), "<d/>").unwrap();
        }
        b.set_shards(2);
        let cat = b.build();
        assert_eq!(cat.shard_count(), 2);
        assert_eq!(cat.shard_bounds(), &[0, 2, 5]);
        assert_eq!(cat.shard_range(0), (0, 2));
        assert_eq!(cat.shard_range(1), (2, 5));
    }

    #[test]
    fn shard_bounds_balance_by_node_weight() {
        // One fat document followed by five tiny ones: the historical
        // fragment-count split would be [0, 3, 6], leaving ~96% of the
        // nodes in shard 0. Node-weight balancing isolates the fat
        // document instead.
        let big = format!("<r>{}</r>", "<x/>".repeat(100));
        let mut b = Catalog::builder();
        b.load_str("big.xml", &big).unwrap();
        for i in 0..5 {
            b.load_str(&format!("s{i}.xml"), "<d/>").unwrap();
        }
        b.set_shards(2);
        let cat = b.build();
        assert_eq!(cat.shard_bounds(), &[0, 1, 6]);
    }

    #[test]
    fn stats_freeze_per_catalog_snapshot() {
        let mut b = Catalog::builder();
        b.load_str("a.xml", r#"<r><x k="3"/><x k="8"/></r>"#)
            .unwrap();
        let cat = b.build();
        let s1 = cat.stats();
        assert_eq!(s1.frags, 1);
        let x = cat.pool().lookup("x").unwrap();
        let k = cat.pool().lookup("k").unwrap();
        assert_eq!(s1.elem_count(x), 2);
        assert_eq!(s1.attr_count(k), 2);
        // Later calls share the snapshot; the next catalog computes its own.
        assert!(Arc::ptr_eq(&s1, &cat.stats()));
        let cat2 = cat.to_builder().build();
        let s2 = cat2.stats();
        assert!(!Arc::ptr_eq(&s1, &s2));
        assert_eq!(s2.total_nodes, cat2.total_nodes() as u64);
    }

    #[test]
    fn oversharded_layouts_have_empty_shards() {
        let mut b = Catalog::builder();
        for i in 0..3 {
            b.load_str(&format!("d{i}.xml"), "<d/>").unwrap();
        }
        b.set_shards(8);
        let cat = b.build();
        assert_eq!(cat.shard_count(), 8);
        let total: u32 = (0..8)
            .map(|i| {
                let (lo, hi) = cat.shard_range(i);
                assert!(lo <= hi);
                hi - lo
            })
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn layout_signature_distinguishes_shard_counts() {
        let mut b = Catalog::builder();
        for i in 0..6 {
            b.load_str(&format!("d{i}.xml"), "<d/>").unwrap();
        }
        b.set_shards(2);
        let two = b.build();
        let mut b8 = two.to_builder();
        b8.set_shards(8);
        let eight = b8.build();
        assert_ne!(two.layout_signature(), eight.layout_signature());
        // Round-tripping through a builder preserves the layout.
        let same = two.to_builder().build();
        assert_eq!(two.layout_signature(), same.layout_signature());
    }

    #[test]
    fn frag_url_reverse_lookup() {
        let mut b = Catalog::builder();
        b.load_str("x.xml", "<x/>").unwrap();
        b.load_str("y.xml", "<y/>").unwrap();
        let cat = b.build();
        assert_eq!(cat.frag_url(0), Some("x.xml"));
        assert_eq!(cat.frag_url(1), Some("y.xml"));
        assert_eq!(cat.frag_url(2), None);
    }
}
