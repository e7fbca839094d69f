//! Error paths: parse errors, static (compile) errors, and dynamic
//! (runtime) errors must surface as typed errors, never panics — and
//! every error carries a stable machine-readable code.

use exrquy::diag::{ErrorClass, ErrorCode};
use exrquy::{QueryOptions, Session};

fn session() -> Session {
    let mut s = Session::new();
    s.load_document("d.xml", "<r><a>1</a><b>x</b></r>").unwrap();
    s
}

#[test]
fn parse_errors_carry_positions() {
    let s = session();
    for q in [
        "1 +",
        "for $x in",
        "<a><b></a>",
        "if (1) then 2",
        "let $x = 3 return $x", // `=` instead of `:=`
        "some $x in (1)",       // missing satisfies
        "$x[",
        "\"unterminated",
    ] {
        let err = s.query(q).unwrap_err();
        assert!(
            err.to_string().contains("XQuery error at byte"),
            "`{q}` gave: {err}"
        );
    }
}

#[test]
fn static_errors() {
    let s = session();
    // Unbound variable.
    let err = s.query("$nobody").unwrap_err();
    assert!(err.to_string().contains("unbound variable $nobody"));
    // Context item without focus.
    let err = s.query(".").unwrap_err();
    assert!(err.to_string().contains("context item"), "{err}");
    // Unknown function.
    let err = s.query("fn:frobnicate()").unwrap_err();
    assert!(err.to_string().contains("unsupported function"));
    // fn:doc with non-literal URL.
    let err = s.query("fn:doc($nobody)").unwrap_err();
    assert!(err.to_string().contains("unbound variable"), "{err}");
}

#[test]
fn dynamic_errors() {
    let s = session();
    // Unknown document.
    let err = s.query(r#"doc("missing.xml")/x"#).unwrap_err();
    assert!(err.to_string().contains("not loaded"), "{err}");
    // Integer division by zero.
    let err = s.query("1 idiv 0").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    // EBV of a multi-item atomic sequence (FORG0006).
    let err = s.query("if ((1, 2)) then 1 else 2").unwrap_err();
    assert!(err.to_string().contains("FORG0006"), "{err}");
    // Path step over atomic values.
    let err = s.query("(1)/child::a").unwrap_err();
    assert!(err.to_string().contains("atomic"), "{err}");
    // Arithmetic on a non-numeric string value.
    let err = s.query(r#"doc("d.xml")//b + 1"#).unwrap_err();
    assert!(err.to_string().contains("number"), "{err}");
}

#[test]
fn malformed_documents_are_rejected() {
    let mut s = Session::new();
    for xml in ["<a>", "<a></b>", "text only", "<a b=c/>", ""] {
        assert!(
            s.load_document("bad.xml", xml).is_err(),
            "accepted malformed `{xml}`"
        );
    }
}

#[test]
fn malformed_documents_carry_codes() {
    let mut s = Session::new();
    // Truncated documents, mismatched tags, bad entity references,
    // attribute syntax junk: all FODC0006 (malformed content) — distinct
    // from FODC0002, which is reserved for retrieval failures (the
    // document does not exist or cannot be read).
    for xml in [
        "<a><b>",         // truncated: b and a never close
        "<a><b></a></b>", // mismatched close ordering
        "<a>&nope;</a>",  // unknown entity reference
        "<a>&#xZZ;</a>",  // malformed character reference
        "<a foo></a>",    // attribute without value
        "<a foo=bar/>",   // unquoted attribute value
        "<a/><b/>",       // two roots
        "<>x</>",         // empty tag name
    ] {
        let err = s.load_document("bad.xml", xml).unwrap_err();
        assert_eq!(err.code(), ErrorCode::FODC0006, "`{xml}` gave {err}");
        assert_eq!(err.class(), ErrorClass::Dynamic);
        assert!(
            err.to_string()
                .contains("XML parse error in `bad.xml` at byte"),
            "{err}"
        );
    }
    // Absurdly deep nesting is a resource error, not a stack overflow.
    let deep = format!("{}{}", "<e>".repeat(4000), "</e>".repeat(4000));
    let err = s.load_document("deep.xml", &deep).unwrap_err();
    assert_eq!(err.code(), ErrorCode::EXRQ0003, "{err}");
    assert_eq!(err.class(), ErrorClass::Resource);
}

#[test]
fn malformed_documents_name_path_and_byte_offset() {
    let mut s = Session::new();
    // The mismatched close tag sits at a known offset; the message must
    // name the document and point into it.
    let xml = "<root><ok/></wrong>";
    let err = s.load_document("data/feed.xml", xml).unwrap_err();
    assert_eq!(err.code(), ErrorCode::FODC0006);
    let msg = err.to_string();
    assert!(msg.contains("`data/feed.xml`"), "{msg}");
    let offset: usize = msg
        .split("at byte ")
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .unwrap_or_else(|| panic!("no byte offset in `{msg}`"));
    assert!(
        offset >= xml.find("</wrong>").unwrap() && offset < xml.len(),
        "offset {offset} does not point at the bad close tag in `{msg}`"
    );
    // A missing document stays FODC0002: retrieval, not content.
    let s2 = session();
    let err = s2.query(r#"doc("nope.xml")/x"#).unwrap_err();
    assert_eq!(err.code(), ErrorCode::FODC0002);
}

#[test]
fn well_formedness_violations_fail_the_load() {
    let mut s = session();
    for (xml, offset, what) in [
        // WFC: Unique Att Spec.
        ("<a x=\"1\" x=\"2\"/>", 9, "duplicate attribute `x`"),
        // WFC: No < in Attribute Values.
        ("<a b=\"x<y\"/>", 7, "`<` in attribute value"),
        // A character reference outside the XML `Char` production.
        ("<a>&#0;</a>", 7, "`&#0;` is not an XML character"),
    ] {
        let err = s.load_document("bad.xml", xml).unwrap_err();
        assert_eq!(err.code(), ErrorCode::FODC0006, "`{xml}` gave {err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("`bad.xml` at byte {offset}: ")) && msg.contains(what),
            "`{xml}` gave {msg}"
        );
    }
    // Nothing was registered, and the session still answers.
    assert!(s.query(r#"doc("bad.xml")"#).is_err());
    assert_eq!(
        s.query(r#"fn:count(doc("d.xml")//a)"#).unwrap().to_xml(),
        "1"
    );
    // Query string literals decode references with the same function:
    // the same reference is a syntax error there.
    let err = s.query("\"&#0;\"").unwrap_err();
    assert_eq!(err.code(), ErrorCode::XPST0003, "{err}");
}

#[test]
fn a_duplicate_attribute_fails_an_xqd_load() {
    use exrquy_xqd::{spawn, ServerConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = spawn(cfg, session()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };
    let r = roundtrip(r#"{"id":1,"op":"load","url":"d.xml","xml":"<r><a x='1' x='2'/></r>"}"#);
    assert!(
        r.contains(r#""ok":false"#) && r.contains(r#""code":"FODC0006""#),
        "{r}"
    );
    assert!(r.contains("duplicate attribute"), "{r}");
    // The load was refused whole: d.xml is still the document it was.
    let r = roundtrip(r#"{"id":2,"op":"query","query":"fn:count(doc(\"d.xml\")//a)"}"#);
    assert!(r.contains(r#""result":"1""#), "{r}");
    handle.shutdown();
}

#[test]
fn a_malformed_corpus_document_fails_the_whole_corpus_load() {
    let mut s = Session::new();
    s.load_corpus([("p0.xml", "<p/>"), ("p1.xml", "<p><q/></p>")])
        .unwrap();
    let before = (s.store_nodes(), s.catalog().frag_count());
    // The fourth document is malformed.
    let xml = |i| match i {
        3 => "<broken".to_string(),
        _ => format!("<r><x>{i}</x></r>"),
    };
    let corpus: Vec<(String, String)> = (0..5).map(|i| (format!("d{i}.xml"), xml(i))).collect();
    let err = s
        .load_corpus(corpus.iter().map(|(u, x)| (u.as_str(), x.as_str())))
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::FODC0006);
    assert!(err.to_string().contains("`d3.xml`"), "{err}");
    // All or nothing: the previous catalog is still the one in place.
    assert_eq!((s.store_nodes(), s.catalog().frag_count()), before);
    assert_eq!(s.query("fn:count(fn:collection())").unwrap().to_xml(), "2");
    assert!(s.query(r#"doc("d0.xml")"#).is_err());
}

#[test]
fn query_errors_carry_codes() {
    let s = session();
    let cases: &[(&str, ErrorCode)] = &[
        // Syntax.
        ("1 +", ErrorCode::XPST0003),
        ("<a><b></a>", ErrorCode::XPST0003),
        ("for $x in", ErrorCode::XPST0003),
        ("\"unterminated", ErrorCode::XPST0003),
        // Static references.
        ("$nobody", ErrorCode::XPST0008),
        ("fn:frobnicate()", ErrorCode::XPST0017),
        (".", ErrorCode::XPDY0002),
        ("/r", ErrorCode::XPDY0002),
        // Dynamic.
        (r#"doc("missing.xml")/x"#, ErrorCode::FODC0002),
        ("1 idiv 0", ErrorCode::FOAR0001),
        ("5 mod 0", ErrorCode::FOAR0001),
        (r#"doc("d.xml")//b + 1"#, ErrorCode::FORG0001),
        ("if ((1, 2)) then 1 else 2", ErrorCode::FORG0006),
        ("(1)/child::a", ErrorCode::XPTY0004),
        // Absurd nesting depth.
        (
            Box::leak(format!("{}1{}", "(".repeat(400), ")".repeat(400)).into_boxed_str()),
            ErrorCode::EXRQ0003,
        ),
    ];
    for (q, code) in cases {
        let err = s.query(q).unwrap_err();
        assert_eq!(err.code(), *code, "`{q}` gave [{}] {err}", err.code());
        // The one-line rendering leads with the code.
        assert!(err.render_line().starts_with(&format!("[{code:?}]")));
    }
}

#[test]
fn absurd_predicate_nesting_is_governed() {
    // A predicate tower is expression nesting too: each `[...]` level
    // must count against the depth budget rather than recurse freely.
    let s = session();
    let q = format!(
        r#"doc("d.xml"){}"#,
        "[a[1][b".repeat(80) + &"]]".repeat(80) + &"]".repeat(80)
    );
    let err = s.query(&q).unwrap_err();
    assert!(
        matches!(err.code(), ErrorCode::EXRQ0003 | ErrorCode::XPST0003),
        "{err}"
    );
}

#[test]
fn errors_are_equal_across_configurations() {
    // A query that fails must fail under every configuration (the
    // optimizer may not mask or invent errors for always-evaluated code).
    let s = session();
    for q in ["1 idiv 0", r#"doc("missing.xml")/x"#] {
        assert!(s.query_with(q, &QueryOptions::baseline()).is_err());
        assert!(s.query_with(q, &QueryOptions::order_indifferent()).is_err());
    }
}

#[test]
fn session_stays_usable_after_errors() {
    let s = session();
    let _ = s.query("1 idiv 0").unwrap_err();
    let _ = s.query("$nope").unwrap_err();
    assert_eq!(s.query("1 + 1").unwrap().to_xml(), "2");
    assert_eq!(
        s.query(r#"fn:count(doc("d.xml")//a)"#).unwrap().to_xml(),
        "1"
    );
}
