//! Node construction: direct and computed constructors, deep-copy
//! semantics, attribute handling, and the seq→doc order interaction (2©).

use exrquy::{QueryOptions, Session};

fn session() -> Session {
    let mut s = Session::new();
    s.load_document("d.xml", r#"<r><a k="1">x</a><b>y</b></r>"#)
        .unwrap();
    s
}

fn eval(s: &mut Session, q: &str) -> String {
    s.query_with(q, &QueryOptions::baseline())
        .unwrap_or_else(|e| panic!("`{q}`: {e}"))
        .to_xml()
}

#[test]
fn direct_element_with_literal_content() {
    let mut s = session();
    assert_eq!(eval(&mut s, "<e>hi</e>"), "<e>hi</e>");
    assert_eq!(eval(&mut s, "<e/>"), "<e/>");
    assert_eq!(eval(&mut s, "<e a=\"1\" b=\"2\"/>"), r#"<e a="1" b="2"/>"#);
}

#[test]
fn enclosed_expressions_and_atomic_spacing() {
    let mut s = session();
    // Adjacent atomics merge into one text node, space-separated.
    assert_eq!(eval(&mut s, "<e>{ 1, 2, 3 }</e>"), "<e>1 2 3</e>");
    assert_eq!(eval(&mut s, "<e>{ 1 }-{ 2 }</e>"), "<e>1-2</e>");
    // Expressions mixing nodes and atomics.
    assert_eq!(
        eval(&mut s, r#"<e>{ 1, doc("d.xml")//b, 2 }</e>"#),
        "<e>1<b>y</b>2</e>"
    );
}

#[test]
fn content_nodes_are_deep_copies() {
    let mut s = session();
    // The copy lives in a new tree: its parent chain ends at the new
    // element, and the original is untouched.
    assert_eq!(
        eval(
            &mut s,
            r#"let $e := <e>{ doc("d.xml")//a }</e> return fn:count($e/a/ancestor::r)"#
        ),
        "0"
    );
    assert_eq!(
        eval(
            &mut s,
            r#"let $e := <e>{ doc("d.xml")//a }</e> return fn:count(doc("d.xml")//a/ancestor::r)"#
        ),
        "1"
    );
    // Attributes of copied elements survive.
    assert_eq!(
        eval(
            &mut s,
            r#"let $e := <e>{ doc("d.xml")//a }</e> return fn:data($e/a/@k)"#
        ),
        "1"
    );
}

#[test]
fn attribute_value_templates() {
    let mut s = session();
    assert_eq!(
        eval(&mut s, r#"<e x="a{1+1}b{ "c" }"/>"#),
        r#"<e x="a2bc"/>"#
    );
    // Sequence in template joins with spaces.
    assert_eq!(eval(&mut s, r#"<e x="{ (1,2,3) }"/>"#), r#"<e x="1 2 3"/>"#);
    // Node in template atomizes to string value.
    assert_eq!(
        eval(&mut s, r#"<e x="{ doc("d.xml")//b }"/>"#),
        r#"<e x="y"/>"#
    );
    // Empty sequence → empty string.
    assert_eq!(eval(&mut s, r#"<e x="{ () }"/>"#), r#"<e x=""/>"#);
}

#[test]
fn computed_constructors() {
    let mut s = session();
    assert_eq!(eval(&mut s, "element out { 1, 2 }"), "<out>1 2</out>");
    assert_eq!(eval(&mut s, "text { 'hello' }"), "hello");
    // A computed attribute used as element content becomes an attribute.
    assert_eq!(
        eval(&mut s, r#"<e>{ attribute k { "v" } }</e>"#),
        r#"<e k="v"/>"#
    );
}

#[test]
fn seq_to_doc_order_interaction() {
    let s = session();
    // Content sequence order becomes document order in the new fragment —
    // regardless of the ordering mode (the paper's interaction 2© is not
    // weakened, Figure 3).
    for opts in [QueryOptions::baseline(), QueryOptions::order_indifferent()] {
        let out = s
            .query_with(
                r#"let $b := doc("d.xml")//b, $a := doc("d.xml")//a
                   return <e>{ $b, $a }</e>"#,
                &opts,
            )
            .unwrap()
            .to_xml();
        assert_eq!(out, r#"<e><b>y</b><a k="1">x</a></e>"#);
    }
}

#[test]
fn constructors_inside_iterations() {
    let mut s = session();
    assert_eq!(
        eval(
            &mut s,
            "for $i in (1, 2) return <n v=\"{ $i }\">{ $i * 10 }</n>"
        ),
        r#"<n v="1">10</n><n v="2">20</n>"#
    );
    // Nested constructors per iteration.
    assert_eq!(
        eval(&mut s, "for $i in (1, 2) return <o><i>{ $i }</i></o>"),
        "<o><i>1</i></o><o><i>2</i></o>"
    );
}

/// A tree of nested direct constructors is one twig: the content rules
/// hold per element of the tree, across the twig's slots, under either
/// compiler — and a constructor that is *not* nested directly (inside a
/// sequence, a FLWOR) is ordinary content with the same outcome.
#[test]
fn nested_direct_constructors_follow_the_content_rules_per_element() {
    let s = session();
    let cases = [
        // Atomics of adjacent slots merge unspaced, a nested element
        // splits the text, and the text after it starts afresh.
        (
            "<a>{ 1, 2 }{ 3 }<b>{ 4 }</b>{ 5 }t{ 6 }</a>",
            "<a>1 23<b>4</b>5t6</a>",
        ),
        // Attributes lead each element of the tree, direct or computed.
        (
            r#"for $x in doc("d.xml")/r/a return
               <o n="{ $x }"><i>{ $x/@k }<j>{ attribute m { 1 }, $x/text() }</j></i>{ $x }</o>"#,
            r#"<o n="x"><i k="1"><j m="1">x</j></i><a k="1">x</a></o>"#,
        ),
        // Empty slots and iterations leave the skeleton standing.
        (
            r#"for $i in (1, 2) return <o><i>{ doc("d.xml")//b[$i = 2] }</i><e/></o>"#,
            "<o><i/><e/></o><o><i><b>y</b></i><e/></o>",
        ),
        // Not nested directly: inside a sequence and inside a FLWOR.
        (
            "<a>{ <b>{ 1 }</b>, 2 }<c>{ for $i in (1, 2) return <d>{ $i }</d> }</c></a>",
            "<a><b>1</b>2<c><d>1</d><d>2</d></c></a>",
        ),
    ];
    for opts in [QueryOptions::baseline(), QueryOptions::order_indifferent()] {
        for (q, want) in cases {
            let got = s
                .query_with(q, &opts)
                .unwrap_or_else(|e| panic!("`{q}`: {e}"));
            assert_eq!(got.to_xml(), want, "`{q}`");
        }
        for q in [
            r#"<a><b>{ 1, doc("d.xml")//a/@k }</b></a>"#,
            r#"<a><b/>{ doc("d.xml")//a/@k }</a>"#,
            r#"<a><b>t{ doc("d.xml")//a/@k }</b></a>"#,
        ] {
            let err = s.query_with(q, &opts).unwrap_err();
            assert!(err.to_string().contains("XQTY0024"), "`{q}`: {err}");
        }
    }
}

#[test]
fn escaped_braces_and_entities() {
    let mut s = session();
    assert_eq!(eval(&mut s, "<e>a{{b}}c</e>"), "<e>a{b}c</e>");
    assert_eq!(eval(&mut s, "<e>&lt;&amp;</e>"), "<e>&lt;&amp;</e>");
}

#[test]
fn attribute_after_content_is_an_error() {
    let s = session();
    let err = s
        .query(r#"<e>{ "text", attribute k { "v" } }</e>"#)
        .unwrap_err();
    assert!(err.to_string().contains("XQTY0024"), "{err}");
}

#[test]
fn querying_constructed_fragments() {
    let mut s = session();
    // Navigate into freshly constructed nodes (paper Expression (3) uses
    // $e/b): steps over constructed fragments work.
    assert_eq!(
        eval(
            &mut s,
            r#"let $e := <e><p>1</p><q/></e> return fn:count($e/*)"#
        ),
        "2"
    );
    assert_eq!(
        eval(&mut s, r#"let $e := <e><p>7</p></e> return $e/p + 1"#),
        "8"
    );
}
