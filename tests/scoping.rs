//! Variable scoping, shadowing, and nesting edge cases of the
//! loop-lifting compiler.

use exrquy::{QueryOptions, Session};

fn session() -> Session {
    let mut s = Session::new();
    s.load_document("d.xml", "<r><a>1</a><a>2</a><b>9</b></r>")
        .unwrap();
    s
}

fn eval(s: &mut Session, q: &str) -> String {
    let a = s
        .query_with(q, &QueryOptions::baseline())
        .unwrap_or_else(|e| panic!("`{q}`: {e}"))
        .to_xml();
    a
}

#[test]
fn let_shadows_let() {
    let mut s = session();
    assert_eq!(eval(&mut s, "let $x := 1 let $x := $x + 1 return $x"), "2");
    assert_eq!(
        eval(&mut s, "let $x := 1 return (let $x := 2 return $x, $x)"),
        "2 1"
    );
}

#[test]
fn for_shadows_outer_for() {
    let mut s = session();
    assert_eq!(
        eval(
            &mut s,
            "for $x in (1,2) return (for $x in (10,20) return $x, $x)"
        ),
        "10 20 1 10 20 2"
    );
}

#[test]
fn quantifier_variable_scope_is_local() {
    let mut s = session();
    assert_eq!(
        eval(
            &mut s,
            "let $x := 99 return ((some $x in (1,2) satisfies $x = 2), $x)"
        ),
        "true 99"
    );
}

#[test]
fn deep_nesting_with_cross_level_references() {
    let mut s = session();
    // Three nested loops; the innermost return references all levels.
    assert_eq!(
        eval(
            &mut s,
            "for $a in (1,2) for $b in (10,20) for $c in (100)
             return $a + $b + $c"
        ),
        "111 121 112 122"
    );
}

#[test]
fn hoisted_lets_are_visible_in_deep_scopes() {
    let mut s = session();
    assert_eq!(
        eval(
            &mut s,
            r#"let $doc := doc("d.xml")
               for $a in $doc//a
               let $bound := fn:count($doc//b)
               return $a + $bound"#
        ),
        "2 3"
    );
}

#[test]
fn context_item_nesting_in_predicates() {
    let mut s = session();
    // Predicates re-focus `.`; nested predicates each get their own focus.
    assert_eq!(eval(&mut s, r#"fn:count(doc("d.xml")//a[. = 2])"#), "1");
    assert_eq!(
        eval(
            &mut s,
            r#"fn:count(doc("d.xml")/r[fn:count(a[. > 0]) = 2])"#
        ),
        "1"
    );
}

#[test]
fn positional_variable_scope() {
    let mut s = session();
    assert_eq!(
        eval(
            &mut s,
            "for $x at $i in ('a','b') for $y at $j in ('c','d')
             return fn:concat($i, $j)"
        ),
        "11 12 21 22"
    );
}

#[test]
fn where_restriction_applies_to_subsequent_clauses() {
    let mut s = session();
    assert_eq!(
        eval(
            &mut s,
            "for $x in (1,2,3,4) where $x mod 2 = 0
             let $sq := $x * $x return $sq"
        ),
        "4 16"
    );
    // Two where clauses conjoin.
    assert_eq!(
        eval(
            &mut s,
            "for $x in (1,2,3,4,5,6) where $x > 2 where $x < 5 return $x"
        ),
        "3 4"
    );
}

#[test]
fn variable_used_at_multiple_depths() {
    let mut s = session();
    // $base used at depth 0 (directly) and depth 2 (in nested loops).
    assert_eq!(
        eval(
            &mut s,
            "let $base := 100 return
             ($base, for $x in (1,2) return
                        for $y in (10) return $base + $x + $y)"
        ),
        "100 111 112"
    );
}

#[test]
fn if_branches_restrict_loops() {
    let mut s = session();
    assert_eq!(
        eval(
            &mut s,
            "for $x in (1,2,3) return if ($x = 2) then $x * 10 else $x"
        ),
        "1 20 3"
    );
    // Aggregates inside branches see only their branch's iterations.
    assert_eq!(
        eval(
            &mut s,
            r#"for $x in (0,1) return
               if ($x = 1) then fn:count(doc("d.xml")//a) else -1"#
        ),
        "-1 2"
    );
}

#[test]
fn empty_binding_sequences_yield_empty_loops() {
    let mut s = session();
    assert_eq!(eval(&mut s, "for $x in () return $x + 1"), "");
    assert_eq!(eval(&mut s, "fn:count(for $x in () return 1)"), "0");
    assert_eq!(
        eval(
            &mut s,
            "for $x in (1,2) return fn:count(for $y in () return $y)"
        ),
        "0 0"
    );
}

#[test]
fn position_and_last_in_predicate_expressions() {
    let mut s = session();
    let q = r#"for $x in (10,20,30,40) return ()"#;
    let _ = q;
    assert_eq!(eval(&mut s, "(10,20,30,40)[position() > 2]"), "30 40");
    assert_eq!(eval(&mut s, "(10,20,30,40)[position() = last()]"), "40");
    assert_eq!(eval(&mut s, "(10,20,30,40)[position() mod 2 = 0]"), "20 40");
    // Combined with a value condition on the focus.
    assert_eq!(
        eval(&mut s, "(10,20,30,40)[position() < 3 and . > 10]"),
        "20"
    );
    // Nested predicate re-focuses: inner position() is the inner rank.
    assert_eq!(
        eval(
            &mut s,
            r#"doc("d.xml")/r[fn:count(a[position() = 2]) = 1]/b"#
        ),
        "<b>9</b>"
    );
    // Path steps: second `a` element.
    assert_eq!(
        eval(&mut s, r#"doc("d.xml")//a[position() = 2]"#),
        "<a>2</a>"
    );
}
