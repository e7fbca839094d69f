//! Catalog statistics for cost-based planning.
//!
//! The optimizer's cardinality model (see `exrquy-opt`) needs cheap,
//! deterministic answers to "how big is this document", "how many `<item>`
//! elements exist", and "how many children does an element have". Those
//! answers live here, collected per fragment and aggregated per catalog:
//!
//! * **materialized fragments** are walked exactly — node counts, element
//!   and attribute name histograms, and child fanout;
//! * **lazy fragments** (raw XML, not yet parsed) are *estimated* by a
//!   single linear scan over the bytes — the same flavor of scan
//!   `scan_names` already performs at load time, so estimation never
//!   parses a tree the query might not touch.
//!
//! Statistics are frozen per catalog snapshot: [`crate::Catalog::stats`]
//! computes them once behind a `OnceLock` and every later call returns the
//! same `Arc`. Because a document load or re-sharding builds a *new*
//! catalog (and swaps the executor, invalidating the plan cache), stats
//! invalidation rides the exact same lifecycle as cached plans — there is
//! no separate invalidation protocol to get wrong. Estimates for lazy
//! fragments may differ from the exact numbers a later snapshot computes
//! after materialization; that can change which plan the cost model
//! prefers, never what any plan returns.

use crate::name::{NameId, NamePool};
use crate::tree::{Document, NodeKind};
use std::collections::HashMap;

/// Node-count and name statistics for one fragment.
#[derive(Debug, Clone, Default)]
pub struct FragStats {
    /// Total encoded nodes (estimated for unmaterialized fragments).
    pub nodes: u64,
    /// Element count per element name.
    pub elem_counts: HashMap<NameId, u64>,
    /// Attribute count per attribute name.
    pub attr_counts: HashMap<NameId, u64>,
    /// Total elements (denominator of the fanout average).
    pub elements: u64,
    /// Total element-children-of-elements (numerator of the fanout
    /// average).
    pub element_children: u64,
}

/// Aggregated, frozen statistics for one catalog snapshot.
#[derive(Debug, Clone, Default)]
pub struct CatalogStats {
    /// Encoded nodes over every fragment (exact or estimated).
    pub total_nodes: u64,
    /// Fragment (≈ document root) count.
    pub frags: u64,
    /// Catalog-wide element count per element name.
    pub elem_counts: HashMap<NameId, u64>,
    /// Catalog-wide attribute count per attribute name.
    pub attr_counts: HashMap<NameId, u64>,
    /// Catalog-wide element count.
    pub elements: u64,
    /// Average element children per element (child-step fanout).
    pub avg_fanout: f64,
}

impl CatalogStats {
    /// Elements named `name` across the catalog.
    pub fn elem_count(&self, name: NameId) -> u64 {
        self.elem_counts.get(&name).copied().unwrap_or(0)
    }

    /// Attributes named `name` across the catalog.
    pub fn attr_count(&self, name: NameId) -> u64 {
        self.attr_counts.get(&name).copied().unwrap_or(0)
    }
}

/// Exact statistics from a parsed fragment.
pub fn stats_of_document(doc: &Document) -> FragStats {
    let mut s = FragStats {
        nodes: doc.len() as u64,
        ..FragStats::default()
    };
    for pre in 0..doc.len() as u32 {
        match doc.kind(pre) {
            NodeKind::Element => {
                s.elements += 1;
                *s.elem_counts.entry(doc.name(pre)).or_default() += 1;
                if let Some(p) = doc.parent(pre) {
                    if doc.kind(p) == NodeKind::Element {
                        s.element_children += 1;
                    }
                }
            }
            NodeKind::Attribute => *s.attr_counts.entry(doc.name(pre)).or_default() += 1,
            _ => {}
        }
    }
    s
}

/// Estimated statistics from raw (unparsed) XML: one linear byte scan, no
/// tree construction, no allocation proportional to document size. Names
/// resolve against the frozen `pool` (the load-time name scan interned
/// them); unknown names are skipped rather than interned.
pub fn estimate_from_xml(xml: &str, pool: &NamePool) -> FragStats {
    let mut s = FragStats {
        nodes: 1, // the virtual document root
        ..FragStats::default()
    };
    let b = xml.as_bytes();
    let mut i = 0;
    let mut depth: u64 = 0;
    while i < b.len() {
        if b[i] != b'<' {
            // Text run until the next tag; count it as one text node if it
            // holds any non-whitespace.
            let start = i;
            while i < b.len() && b[i] != b'<' {
                i += 1;
            }
            if !xml[start..i].trim().is_empty() {
                s.nodes += 1;
            }
            continue;
        }
        i += 1;
        match b.get(i) {
            Some(b'/') => {
                // Closing tag.
                while i < b.len() && b[i] != b'>' {
                    i += 1;
                }
                depth = depth.saturating_sub(1);
            }
            Some(b'!') | Some(b'?') => {
                while i < b.len() && b[i] != b'>' {
                    i += 1;
                }
            }
            Some(c) if c.is_ascii_alphabetic() || *c == b'_' => {
                let start = i;
                while i < b.len() && !b" \t\r\n/>".contains(&b[i]) {
                    i += 1;
                }
                s.nodes += 1;
                s.elements += 1;
                if depth > 0 {
                    s.element_children += 1;
                }
                if let Some(id) = pool.lookup(&xml[start..i]) {
                    *s.elem_counts.entry(id).or_default() += 1;
                }
                // Attributes until the tag closes.
                let mut self_closing = false;
                while i < b.len() && b[i] != b'>' {
                    if b[i] == b'/' {
                        self_closing = true;
                        i += 1;
                    } else if b[i].is_ascii_alphabetic() || b[i] == b'_' {
                        let astart = i;
                        while i < b.len() && !b"= \t\r\n/>".contains(&b[i]) {
                            i += 1;
                        }
                        let aname = pool.lookup(&xml[astart..i]);
                        while i < b.len() && (b[i] == b' ' || b[i] == b'=') {
                            i += 1;
                        }
                        if i < b.len() && (b[i] == b'"' || b[i] == b'\'') {
                            let quote = b[i];
                            i += 1;
                            while i < b.len() && b[i] != quote {
                                i += 1;
                            }
                            s.nodes += 1;
                            if let Some(id) = aname {
                                *s.attr_counts.entry(id).or_default() += 1;
                            }
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
                if !self_closing {
                    depth += 1;
                }
            }
            _ => {}
        }
        while i < b.len() && b[i] != b'>' {
            i += 1;
        }
        i += 1;
    }
    s
}

/// Cheap node-weight estimate for shard balancing of an unparsed
/// fragment: every `<` opens *something* (element, closing tag, comment),
/// so half the `<` count plus attribute openers approximates encoded
/// nodes well enough to balance shards. Always ≥ 1 (the document root).
pub fn estimate_node_weight(xml: &str) -> u64 {
    let opens = xml.bytes().filter(|&b| b == b'<').count() as u64;
    let attrs = xml.bytes().filter(|&b| b == b'=').count() as u64;
    // An element contributes an opening and (usually) a closing tag.
    (opens / 2 + attrs + 1).max(1)
}

/// Fold per-fragment statistics into catalog-wide aggregates.
pub fn aggregate(per_frag: Vec<FragStats>) -> CatalogStats {
    let mut out = CatalogStats {
        frags: per_frag.len() as u64,
        ..CatalogStats::default()
    };
    for f in &per_frag {
        out.total_nodes += f.nodes;
        out.elements += f.elements;
        for (&n, &c) in &f.elem_counts {
            *out.elem_counts.entry(n).or_default() += c;
        }
        for (&n, &c) in &f.attr_counts {
            *out.attr_counts.entry(n).or_default() += c;
        }
    }
    let children: u64 = per_frag.iter().map(|f| f.element_children).sum();
    out.avg_fanout = if out.elements > 0 {
        children as f64 / out.elements as f64
    } else {
        0.0
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    #[test]
    fn exact_walk_counts_elements_and_attributes() {
        let mut pool = NamePool::new();
        let doc =
            parse_document(r#"<r><a id="3">7</a><a id="9"/><b>x</b></r>"#, &mut pool).unwrap();
        let s = stats_of_document(&doc);
        assert_eq!(s.nodes, doc.len() as u64);
        let a = pool.lookup("a").unwrap();
        let id = pool.lookup("id").unwrap();
        assert_eq!(s.elem_counts[&a], 2);
        assert_eq!(s.attr_counts[&id], 2);
        assert_eq!(s.elements, 4);
    }

    #[test]
    fn estimate_tracks_the_exact_walk_closely() {
        let xml = r#"<r><a id="3">7</a><a id="9"/><b>x</b></r>"#;
        let mut pool = NamePool::new();
        let doc = parse_document(xml, &mut pool).unwrap();
        let exact = stats_of_document(&doc);
        let est = estimate_from_xml(xml, &pool);
        assert_eq!(est.nodes, exact.nodes, "node estimate exact on clean XML");
        let a = pool.lookup("a").unwrap();
        let id = pool.lookup("id").unwrap();
        assert_eq!(est.elem_counts[&a], exact.elem_counts[&a]);
        assert_eq!(est.attr_counts[&id], exact.attr_counts[&id]);
        assert_eq!(est.elements, exact.elements);
        assert_eq!(est.element_children, exact.element_children);
    }

    #[test]
    fn node_weight_estimate_is_positive_and_monotonic() {
        assert!(estimate_node_weight("") >= 1);
        let small = estimate_node_weight("<a/>");
        let big = estimate_node_weight(&"<a><b/><c/></a>".repeat(50));
        assert!(big > small);
    }

    #[test]
    fn aggregate_sums_fragments() {
        let mut pool = NamePool::new();
        let d1 = parse_document("<r><x/></r>", &mut pool).unwrap();
        let d2 = parse_document("<r><x/><x/></r>", &mut pool).unwrap();
        let frags = vec![stats_of_document(&d1), stats_of_document(&d2)];
        let (n1, n2) = (frags[0].nodes, frags[1].nodes);
        let agg = aggregate(frags);
        assert_eq!((agg.frags, agg.total_nodes), (2, n1 + n2));
        let x = pool.lookup("x").unwrap();
        assert_eq!(agg.elem_count(x), 3);
        assert_eq!(agg.attr_count(x), 0);
        assert!(agg.avg_fanout > 0.0);
    }
}
