//! Node atomization: the typed/string value of a node (`fn:data`,
//! `fn:string` on nodes).
//!
//! The paper's Q11 profile (Table 2) lists "atomization" as a measurable
//! plan phase; this module is the substrate behind it. Without a schema,
//! atomizing a node yields its *string value*: for elements and documents
//! the concatenation of all descendant text nodes in document order, for
//! the other kinds their own content.

use crate::tree::{Document, NodeKind, NO_TEXT};
use std::sync::Arc;

/// String value of node `pre` in `doc`.
pub fn string_value(doc: &Document, pre: u32) -> String {
    match doc.kind(pre) {
        NodeKind::Element | NodeKind::Document => {
            let mut out = String::new();
            let end = pre + doc.size(pre);
            for p in pre + 1..=end {
                if doc.kind(p) == NodeKind::Text {
                    out.push_str(doc.text(p).unwrap_or(""));
                }
            }
            out
        }
        _ => doc.text(pre).unwrap_or("").to_owned(),
    }
}

/// [`string_value`] as a shared string. A text, attribute, comment or PI
/// node — and an element or document whose subtree holds exactly one text
/// node, the shape of nearly every atomized XMark field — hands out the
/// document's own `Arc<str>` (a refcount bump); only a value that has to
/// be concatenated from several text nodes is built afresh.
pub fn shared_string_value(doc: &Document, pre: u32) -> Arc<str> {
    let stored = |p: u32| match doc.texts[p as usize] {
        NO_TEXT => Arc::from(""),
        t => Arc::clone(&doc.text_data[t as usize]),
    };
    match doc.kind(pre) {
        NodeKind::Element | NodeKind::Document => {
            let mut texts =
                (pre + 1..=pre + doc.size(pre)).filter(|&p| doc.kind(p) == NodeKind::Text);
            match (texts.next(), texts.next()) {
                (None, _) => Arc::from(""),
                (Some(only), None) => stored(only),
                (Some(_), Some(_)) => string_value(doc, pre).into(),
            }
        }
        _ => stored(pre),
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
    fn shared_values_equal_built_ones_and_share_single_texts() {
        let mut pool = NamePool::new();
        let doc = parse_document(
            r#"<a k="v">x<b y="skip">y</b><c/><!--c--><d><e>deep</e></d>z</a>"#,
            &mut pool,
        )
        .unwrap();
        for pre in 0..doc.len() as u32 {
            assert_eq!(&*shared_string_value(&doc, pre), string_value(&doc, pre));
        }
        // <d><e>deep</e></d>: `d`, `e` and the text node itself all hand
        // out the one stored string.
        let text = (0..doc.len() as u32)
            .find(|&p| doc.kind(p) == NodeKind::Text && doc.text(p) == Some("deep"))
            .unwrap();
        let stored = &doc.text_data[doc.texts[text as usize] as usize];
        for pre in [text - 2, text - 1, text] {
            assert!(Arc::ptr_eq(&shared_string_value(&doc, pre), stored));
        }
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
