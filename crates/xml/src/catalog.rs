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
use crate::parse::{parse_document, scan_names, ParseError};
use crate::stats::{self, CatalogStats};
use crate::tree::Document;
use exrquy_diag::ErrorCode;
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

/// One base fragment: either an eagerly parsed document or a lazy slot
/// holding the raw XML plus a write-once cell the parsed tree lands in
/// on first touch. Names are interned eagerly in both cases (the scan
/// pass of [`CatalogBuilder::load_str_lazy`]), so the catalog's pool is
/// frozen and complete regardless of which slots have materialized.
#[derive(Debug)]
enum FragSlot {
    Loaded(Arc<Document>),
    Lazy {
        xml: Arc<str>,
        cell: OnceLock<Arc<Document>>,
    },
}

impl FragSlot {
    fn document(&self) -> Option<&Arc<Document>> {
        match self {
            FragSlot::Loaded(d) => Some(d),
            FragSlot::Lazy { cell, .. } => cell.get(),
        }
    }
}

impl Clone for FragSlot {
    fn clone(&self) -> Self {
        match self {
            FragSlot::Loaded(d) => FragSlot::Loaded(Arc::clone(d)),
            FragSlot::Lazy { xml, cell } => {
                let copy = OnceLock::new();
                if let Some(d) = cell.get() {
                    let _ = copy.set(Arc::clone(d));
                }
                FragSlot::Lazy {
                    xml: Arc::clone(xml),
                    cell: copy,
                }
            }
        }
    }
}

/// Why a batch of lazy fragments failed to materialize. Either way
/// nothing from the failing batch became visible — materialization
/// stages every parse first and commits only a fully parsed batch, so a
/// budget trip or parse error mid-shard leaves no partial shard behind.
#[derive(Debug, Clone)]
pub enum MaterializeError {
    /// A document in the batch is malformed (or parse was fault-injected).
    Parse(ParseError),
    /// Parsing the batch would exceed the caller's node ceiling.
    NodeBudget { nodes: usize, cap: usize },
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::Parse(e) => e.fmt(f),
            MaterializeError::NodeBudget { nodes, cap } => write!(
                f,
                "lazy document load would materialize {nodes} XML nodes, exceeding the budget of {cap}"
            ),
        }
    }
}

impl std::error::Error for MaterializeError {}

/// What one [`Catalog::materialize_frags`] call committed.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializeStats {
    /// Fragments parsed and committed by this call.
    pub frags: usize,
    /// Nodes those fragments hold.
    pub nodes: usize,
    /// Raw XML bytes parsed.
    pub bytes: usize,
}

/// The immutable document layer: parsed (or lazily pending) documents, a
/// frozen name pool, the `fn:doc()` URL map, and the shard layout — a
/// partition of the fragment range into contiguous, ascending shards.
/// Cheap to clone (fragments and pool are behind `Arc`s) and shareable
/// across threads.
#[derive(Debug, Clone)]
pub struct Catalog {
    frags: Vec<FragSlot>,
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

    /// Total node count over all *materialized* base documents (lazy
    /// slots contribute once they load).
    pub fn total_nodes(&self) -> usize {
        self.frags
            .iter()
            .filter_map(|s| s.document())
            .map(|d| d.len())
            .sum()
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

    /// Which shard holds fragment `frag`. Boundaries may repeat (empty
    /// shards), so the owner is the last shard whose lower bound is
    /// ≤ `frag`.
    pub fn shard_of(&self, frag: u32) -> usize {
        debug_assert!((frag as usize) < self.frag_count());
        self.shards.partition_point(|&b| b <= frag) - 1
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

    /// Whether fragment `frag` has a parsed tree (eager, or lazy and
    /// already touched).
    pub fn is_materialized(&self, frag: u32) -> bool {
        self.frags[frag as usize].document().is_some()
    }

    /// Fragments in `[lo, hi)` that still need parsing.
    pub fn pending_frags(&self, lo: u32, hi: u32) -> Vec<u32> {
        (lo..hi.min(self.frag_count() as u32))
            .filter(|&f| !self.is_materialized(f))
            .collect()
    }

    /// Parse the given lazy fragments and commit them, atomically per
    /// call: every document is parsed into a staging area first (against
    /// a scratch copy of the frozen pool — the eager name scan guarantees
    /// no new names appear), and only a fully parsed batch is published
    /// into the write-once cells. On any error *nothing* from this call
    /// becomes visible. `node_cap` bounds the nodes this call may
    /// materialize (a lazy-load budget); already-materialized fragments
    /// in `frags` are skipped and free.
    ///
    /// Concurrent callers may race on the same fragment; the first commit
    /// wins and later ones are dropped — both parsed the same bytes
    /// against the same frozen pool, so the trees are identical.
    pub fn materialize_frags(
        &self,
        frags: &[u32],
        node_cap: Option<usize>,
    ) -> Result<MaterializeStats, MaterializeError> {
        let mut staged: Vec<(u32, Document)> = Vec::new();
        let mut scratch: Option<NamePool> = None;
        let mut stats = MaterializeStats::default();
        for &f in frags {
            let FragSlot::Lazy { xml, cell } = &self.frags[f as usize] else {
                continue;
            };
            if cell.get().is_some() {
                continue;
            }
            let pool = scratch.get_or_insert_with(|| (*self.pool).clone());
            let before = pool.len();
            let url = self.frag_url(f).unwrap_or("<collection>").to_owned();
            let doc = parse_document(xml, pool)
                .map_err(|e| MaterializeError::Parse(e.with_source(url.clone())))?;
            if pool.len() != before {
                return Err(MaterializeError::Parse(ParseError {
                    offset: 0,
                    message: "lazily loaded document interned names the load-time scan missed"
                        .into(),
                    code: ErrorCode::FODC0006,
                    source: Some(url),
                }));
            }
            stats.frags += 1;
            stats.nodes += doc.len();
            stats.bytes += xml.len();
            if let Some(cap) = node_cap {
                if stats.nodes > cap {
                    return Err(MaterializeError::NodeBudget {
                        nodes: stats.nodes,
                        cap,
                    });
                }
            }
            staged.push((f, doc));
        }
        for (f, doc) in staged {
            if let FragSlot::Lazy { cell, .. } = &self.frags[f as usize] {
                let _ = cell.set(Arc::new(doc));
            }
        }
        Ok(stats)
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
    /// the first call walks every materialized fragment exactly and
    /// byte-scan-estimates the still-lazy ones; every later call returns
    /// the same `Arc`. A fragment materializing *after* the freeze does
    /// not update the snapshot — estimates only steer plan choice, never
    /// results, and the next catalog swap recomputes exactly.
    pub fn stats(&self) -> Arc<CatalogStats> {
        Arc::clone(self.stats.get_or_init(|| {
            let per: Vec<stats::FragStats> = self
                .frags
                .iter()
                .map(|slot| match slot.document() {
                    Some(d) => stats::stats_of_document(d),
                    None => match slot {
                        FragSlot::Lazy { xml, .. } => stats::estimate_from_xml(xml, &self.pool),
                        FragSlot::Loaded(_) => unreachable!("loaded slots have documents"),
                    },
                })
                .collect();
            Arc::new(stats::aggregate(per))
        }))
    }
}

impl NodeRead for Catalog {
    fn frag(&self, frag: u32) -> &Document {
        self.frags[frag as usize].document().unwrap_or_else(|| {
            panic!(
                "fragment {frag} is lazy and not yet materialized \
                 (executors must materialize every fragment a plan can touch before evaluating)"
            )
        })
    }

    fn resolve_name(&self, id: NameId) -> &str {
        self.pool.resolve(id)
    }
}

/// Mutable staging area for building a [`Catalog`]. Documents are parsed
/// (or name-scanned and deferred) into the builder; nothing becomes
/// visible to readers until [`build`](Self::build) produces the
/// immutable catalog.
#[derive(Debug)]
pub struct CatalogBuilder {
    frags: Vec<FragSlot>,
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
        let doc = crate::parse::parse_document(xml, &mut self.pool)?;
        Ok(self.insert(url, doc))
    }

    /// Register `xml` under `url` *without parsing it*: only the names
    /// are interned (one cheap scan, so the built catalog's pool is
    /// complete and frozen) and the tree is encoded on first touch —
    /// see [`Catalog::materialize_frags`]. Malformed XML is accepted
    /// here and reported when materialization first parses it. Same
    /// replace-in-place semantics as [`load_str`](Self::load_str).
    pub fn load_str_lazy(&mut self, url: &str, xml: &str) -> NodeId {
        scan_names(xml, &mut self.pool);
        self.insert_slot(
            url,
            FragSlot::Lazy {
                xml: Arc::from(xml),
                cell: OnceLock::new(),
            },
        )
    }

    /// Register an already-encoded document under `url` (same replace
    /// semantics as [`load_str`](Self::load_str)).
    pub fn insert(&mut self, url: &str, doc: Document) -> NodeId {
        self.insert_slot(url, FragSlot::Loaded(Arc::new(doc)))
    }

    fn insert_slot(&mut self, url: &str, slot: FragSlot) -> NodeId {
        let node = match self.docs.get(url) {
            Some(old) => {
                self.frags[old.frag as usize] = slot;
                *old
            }
            None => {
                let frag = self.frags.len() as u32;
                self.frags.push(slot);
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
    /// computed here: `k` contiguous ranges balanced by *node weight*
    /// (exact node counts for parsed fragments, byte-scan estimates for
    /// lazy ones), so one fat document no longer lands a whole corpus's
    /// work on shard 0 the way the old fragment-count split did.
    pub fn build(self) -> Catalog {
        let weights: Vec<u64> = self
            .frags
            .iter()
            .map(|slot| match slot.document() {
                Some(d) => (d.len() as u64).max(1),
                None => match slot {
                    FragSlot::Lazy { xml, .. } => stats::estimate_node_weight(xml),
                    FragSlot::Loaded(_) => unreachable!("loaded slots have documents"),
                },
            })
            .collect();
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
    fn lazy_load_defers_parse_until_materialized() {
        let mut b = Catalog::builder();
        let root = b.load_str_lazy("a.xml", "<a><b/><c/></a>");
        let cat = b.build();
        assert_eq!(root, NodeId::new(0, 0));
        assert!(!cat.is_materialized(0));
        assert_eq!(cat.total_nodes(), 0);
        // Names were interned eagerly by the scan.
        assert!(cat.pool().lookup("b").is_some());
        assert_eq!(cat.pending_frags(0, 1), vec![0]);
        let stats = cat.materialize_frags(&[0], None).unwrap();
        assert_eq!((stats.frags, stats.nodes), (1, 4));
        assert!(cat.is_materialized(0));
        assert_eq!(cat.total_nodes(), 4);
        assert_eq!(cat.frag(0).len(), 4);
        // Re-materializing is free.
        let again = cat.materialize_frags(&[0], None).unwrap();
        assert_eq!(again.frags, 0);
    }

    #[test]
    fn lazy_parse_error_surfaces_at_materialization() {
        let mut b = Catalog::builder();
        b.load_str_lazy("good.xml", "<g/>");
        b.load_str_lazy("bad.xml", "<broken");
        let cat = b.build();
        let err = cat.materialize_frags(&[0, 1], None).unwrap_err();
        assert!(matches!(err, MaterializeError::Parse(_)), "{err}");
        assert!(err.to_string().contains("bad.xml"), "{err}");
        // Atomic: the good document did not commit either.
        assert!(!cat.is_materialized(0));
    }

    #[test]
    fn node_budget_trips_without_partial_commit() {
        let mut b = Catalog::builder();
        b.load_str_lazy("a.xml", "<a><b/><c/></a>"); // 4 nodes
        b.load_str_lazy("b.xml", "<a><b/><c/></a>"); // 4 nodes
        let cat = b.build();
        let err = cat.materialize_frags(&[0, 1], Some(5)).unwrap_err();
        assert!(matches!(err, MaterializeError::NodeBudget { .. }), "{err}");
        assert!(!cat.is_materialized(0) && !cat.is_materialized(1));
        assert_eq!(cat.total_nodes(), 0);
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
        assert_eq!(cat.shard_of(0), 0);
        assert_eq!(cat.shard_of(1), 0);
        assert_eq!(cat.shard_of(2), 1);
        assert_eq!(cat.shard_of(4), 1);
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

        // Lazy loads balance on byte-scan estimates the same way — no
        // parse happens at build time.
        let mut b = Catalog::builder();
        b.load_str_lazy("big.xml", &big);
        for i in 0..5 {
            b.load_str_lazy(&format!("s{i}.xml"), "<d/>");
        }
        b.set_shards(2);
        let cat = b.build();
        assert_eq!(cat.total_nodes(), 0, "balancing must not parse");
        assert_eq!(cat.shard_bounds(), &[0, 1, 6]);
    }

    #[test]
    fn stats_freeze_per_catalog_snapshot() {
        let mut b = Catalog::builder();
        b.load_str_lazy("a.xml", r#"<r><x k="3"/><x k="8"/></r>"#);
        let cat = b.build();
        let s1 = cat.stats();
        assert_eq!(cat.total_nodes(), 0, "estimating must not parse");
        assert_eq!(s1.frags, 1);
        let x = cat.pool().lookup("x").unwrap();
        let k = cat.pool().lookup("k").unwrap();
        assert_eq!(s1.elem_count(x), 2);
        assert_eq!(s1.attr_count(k), 2);
        // Materializing after the freeze does not mutate the snapshot…
        cat.materialize_frags(&[0], None).unwrap();
        assert!(Arc::ptr_eq(&s1, &cat.stats()));
        // …but the next snapshot (catalog swap) recomputes exactly.
        let cat2 = cat.to_builder().build();
        let s2 = cat2.stats();
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
        // Every fragment is owned by the shard whose range contains it.
        for f in 0..3u32 {
            let s = cat.shard_of(f);
            let (lo, hi) = cat.shard_range(s);
            assert!(lo <= f && f < hi);
        }
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
