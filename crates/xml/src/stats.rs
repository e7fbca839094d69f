//! Catalog statistics for cost-based planning.
//!
//! The optimizer's cardinality model (see `exrquy-opt`) needs cheap,
//! deterministic answers to "how big is this document", "how many `<item>`
//! elements exist", and "how many children does an element have". Those
//! answers live here: every parsed fragment is walked exactly — node
//! counts, element and attribute name histograms, and child fanout — and
//! the per-fragment numbers are aggregated per catalog.
//!
//! Statistics are frozen per catalog snapshot: [`crate::Catalog::stats`]
//! computes them once behind a `OnceLock` and every later call returns the
//! same `Arc`. Because a document load or reload builds a *new*
//! catalog (and swaps the executor, invalidating the plan cache), stats
//! invalidation rides the exact same lifecycle as cached plans — there is
//! no separate invalidation protocol to get wrong.

use crate::name::NameId;
use crate::tree::{Document, NodeKind};
use std::collections::HashMap;

/// Node-count and name statistics for one fragment.
#[derive(Debug, Clone, Default)]
pub struct FragStats {
    /// Total encoded nodes.
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
    /// Encoded nodes over every fragment.
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
    use crate::name::NamePool;
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
