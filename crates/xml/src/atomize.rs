//! Node atomization: the typed/string value of a node (`fn:data`,
//! `fn:string` on nodes).
//!
//! The paper's Q11 profile (Table 2) lists "atomization" as a measurable
//! plan phase; this module is the substrate behind it. Without a schema,
//! atomizing a node yields its *string value*: for elements and documents
//! the concatenation of all descendant text nodes in document order, for
//! the other kinds their own content.
//!
//! A value is read out of the document's text arena and borrowed
//! wherever it is one slice of it: the value of a leaf, and that of an
//! element or document whose descendant values are all text nodes (the
//! values of a subtree are adjacent in the arena, so their concatenation
//! is the slice that spans them). Only a subtree that mixes text with
//! attribute, comment or PI values has its string value built afresh.

use crate::tree::{Document, NodeKind, NO_TEXT};
use std::borrow::Cow;

/// String value of node `pre` in `doc`.
pub fn string_value(doc: &Document, pre: u32) -> Cow<'_, str> {
    match doc.kind(pre) {
        NodeKind::Element | NodeKind::Document => {
            let window = pre + 1..=pre + doc.size(pre);
            let mut valued = window.clone().filter(|&p| doc.texts[p as usize] != NO_TEXT);
            let Some(first) = valued.next() else {
                return Cow::Borrowed("");
            };
            let mut last = first;
            let mut text_only = doc.kind(first) == NodeKind::Text;
            for p in valued {
                text_only &= doc.kind(p) == NodeKind::Text;
                last = p;
            }
            if text_only {
                let (first, last) = (doc.texts[first as usize], doc.texts[last as usize]);
                return Cow::Borrowed(doc.arena.span(first, last));
            }
            let mut out = String::new();
            for p in window {
                if doc.kind(p) == NodeKind::Text {
                    out.push_str(doc.text(p).unwrap_or(""));
                }
            }
            Cow::Owned(out)
        }
        _ => Cow::Borrowed(doc.text(pre).unwrap_or("")),
    }
}

/// Parse an XQuery-style numeric literal from a string value (leading and
/// trailing whitespace allowed). Returns `None` when the value is not a
/// number (which XQuery maps to `NaN` for `fn:number` and to a dynamic
/// error for arithmetic on untyped values — callers pick their poison).
pub fn parse_number(s: &str) -> Option<f64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    // XML Schema doubles allow `1e3`, `+.5`, `-2.`, INF/-INF/NaN.
    match t {
        "INF" | "+INF" => return Some(f64::INFINITY),
        "-INF" => return Some(f64::NEG_INFINITY),
        "NaN" => return Some(f64::NAN),
        _ => {}
    }
    t.parse::<f64>()
        .ok()
        .filter(|f| f.is_finite() || t.contains("INF"))
}

/// Parse an integer string value (`xs:integer` lexical space).
pub fn parse_integer(s: &str) -> Option<i64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    t.parse::<i64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NamePool;
    use crate::parse::parse_document;

    #[test]
    fn element_string_value_concatenates_descendant_text() {
        let mut pool = NamePool::new();
        let doc = parse_document(r#"<a>x<b y="skip">y</b><c/>z</a>"#, &mut pool).unwrap();
        // Attribute values are NOT part of the string value.
        assert_eq!(string_value(&doc, 1), "xyz");
        assert_eq!(string_value(&doc, 0), "xyz"); // document node
    }

    #[test]
    fn leaf_string_values() {
        let mut pool = NamePool::new();
        let doc = parse_document(r#"<a k="v">t<!--c--></a>"#, &mut pool).unwrap();
        assert_eq!(string_value(&doc, 2), "v"); // attribute
        assert_eq!(string_value(&doc, 3), "t"); // text
        assert_eq!(string_value(&doc, 4), "c"); // comment
    }

    #[test]
    fn values_borrow_the_arena_unless_text_mixes_with_other_values() {
        let mut pool = NamePool::new();
        let doc = parse_document(
            r#"<a k="v">x<b y="skip">y</b><c/><!--c--><d><e>deep</e>er</d>z</a>"#,
            &mut pool,
        )
        .unwrap();
        // The element-by-element definition, built the long way.
        let built = |pre: u32| -> String {
            match doc.kind(pre) {
                NodeKind::Element | NodeKind::Document => (pre + 1..=pre + doc.size(pre))
                    .filter(|&p| doc.kind(p) == NodeKind::Text)
                    .filter_map(|p| doc.text(p))
                    .collect(),
                _ => doc.text(pre).unwrap_or("").to_owned(),
            }
        };
        for pre in 0..doc.len() as u32 {
            assert_eq!(string_value(&doc, pre), built(pre), "node {pre}");
        }
        // One text node: `e`, and the text node itself, borrow it.
        let deep = (0..doc.len() as u32)
            .find(|&p| doc.text(p) == Some("deep"))
            .unwrap();
        for pre in [deep - 1, deep] {
            assert!(matches!(string_value(&doc, pre), Cow::Borrowed("deep")));
        }
        // Two adjacent text nodes: `d` borrows their joint slice.
        assert!(matches!(
            string_value(&doc, deep - 2),
            Cow::Borrowed("deeper")
        ));
        // `b` holds an attribute value beside its text, and `a` and the
        // document node hold attribute and comment values: built afresh.
        assert_eq!(pool.resolve(doc.name(4)), "b");
        for pre in [0, 1, 4] {
            assert!(matches!(string_value(&doc, pre), Cow::Owned(_)), "{pre}");
        }
        // No text at all.
        let c_name = pool.lookup("c").unwrap();
        let c = (0..doc.len() as u32)
            .find(|&p| doc.name(p) == c_name && doc.kind(p) == NodeKind::Element)
            .unwrap();
        assert!(matches!(string_value(&doc, c), Cow::Borrowed("")));
    }

    #[test]
    fn numeric_parsing() {
        assert_eq!(parse_number(" 42 "), Some(42.0));
        assert_eq!(parse_number("-3.5e2"), Some(-350.0));
        assert_eq!(parse_number("INF"), Some(f64::INFINITY));
        assert!(parse_number("NaN").unwrap().is_nan());
        assert_eq!(parse_number("abc"), None);
        assert_eq!(parse_number(""), None);
        assert_eq!(parse_integer("007"), Some(7));
        assert_eq!(parse_integer("1.5"), None);
    }
}
