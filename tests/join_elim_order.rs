//! `join-elim-key-domain` and `join-self-key` must keep not only the row
//! multiset but the *physical* row order: a `#` above the vanished join
//! numbers rows by position, so a reordering would be observable.
//!
//! The left side here is deliberately not sorted by the join key, and
//! carries duplicates of it; the plan is executed before and after the
//! rewrite and compared position by position.

use exrquy_algebra::{AValue, Col, Dag, Op, OpId};
use exrquy_engine::{Engine, EngineOptions, Item};
use exrquy_opt::{try_optimize, OptOptions};
use exrquy_xml::{Catalog, FragArena};
use std::sync::Arc;

fn lit(dag: &mut Dag, col: Col, vals: &[i64]) -> OpId {
    dag.add(Op::Lit {
        cols: vec![col],
        rows: vals.iter().map(|&v| vec![AValue::Int(v)]).collect(),
    })
}

fn project(dag: &mut Dag, input: OpId, cols: &[(Col, Col)]) -> OpId {
    dag.add(Op::Project {
        input,
        cols: cols.to_vec(),
    })
}

/// `(pos, item)` per physical row of the result.
fn run(dag: &Dag, root: OpId) -> Vec<(Item, Item)> {
    let mut arena = FragArena::new(Arc::new(Catalog::new()));
    let mut e = Engine::new(dag, &mut arena, EngineOptions::default());
    let t = e.eval(root).unwrap();
    let (pos, item) = (t.col(Col::POS), t.col(Col::ITEM));
    (0..t.nrows()).map(|r| (pos.get(r), item.get(r))).collect()
}

#[test]
fn vanished_joins_keep_physical_row_order() {
    let mut dag = Dag::new();
    // Loop relation: five rows numbered 1..5; the items sort into
    // bind order 2, 4, 1, 5, 3.
    let src = lit(&mut dag, Col::ITEM, &[30, 10, 50, 20, 40]);
    let numbered = dag.add(Op::RowId {
        input: src,
        new: Col::BIND,
    });
    let key = project(&mut dag, numbered, &[(Col::ITER1, Col::BIND)]);
    // Left side: every loop row three times over, sorted by item — so
    // the join key arrives as 2,2,2,4,4,4,1,… .
    let view = project(
        &mut dag,
        numbered,
        &[(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
    );
    let thrice = lit(&mut dag, Col::ITEM2, &[1, 2, 3]);
    let crossed = dag.add(Op::Cross { l: view, r: thrice });
    let shuffled = dag.add(Op::Sort {
        input: crossed,
        keys: vec![Col::ITEM],
    });
    // Map join back to the loop key (`join-elim-key-domain`) …
    let joined = dag.add(Op::EquiJoin {
        l: shuffled,
        r: key,
        lcol: Col::ITER,
        rcol: Col::ITER1,
    });
    // … a renumbering of the result joined to itself (`join-self-key`) …
    let renumbered = dag.add(Op::RowId {
        input: joined,
        new: Col::POS1,
    });
    let a = project(&mut dag, renumbered, &[(Col::OUTER, Col::POS1)]);
    let b = project(
        &mut dag,
        renumbered,
        &[(Col::INNER, Col::POS1), (Col::ITEM, Col::ITER)],
    );
    let selfed = dag.add(Op::EquiJoin {
        l: a,
        r: b,
        lcol: Col::OUTER,
        rcol: Col::INNER,
    });
    // … and a `#` on top that observes the physical order.
    let observed = dag.add(Op::RowId {
        input: selfed,
        new: Col::POS,
    });
    let top = project(
        &mut dag,
        observed,
        &[(Col::POS, Col::POS), (Col::ITEM, Col::ITEM)],
    );
    let root = dag.add(Op::Serialize { input: top });

    // The result's item is the join key: unsorted, with duplicates.
    let before = run(&dag, root);
    let expected = [2, 2, 2, 4, 4, 4, 1, 1, 1, 5, 5, 5, 3, 3, 3]
        .iter()
        .zip(1..)
        .map(|(&key, pos)| (Item::Int(pos), Item::Int(key)))
        .collect::<Vec<_>>();
    assert_eq!(before, expected);

    let (new_root, report) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
    assert_eq!(
        report.fired("join-elim-key-domain"),
        1,
        "{:?}",
        report.trace
    );
    assert_eq!(report.fired("join-self-key"), 1, "{:?}", report.trace);
    let joins = dag
        .reachable(new_root)
        .into_iter()
        .filter(|id| matches!(dag.op(*id), Op::EquiJoin { .. }))
        .count();
    assert_eq!(joins, 0);
    assert_eq!(run(&dag, new_root), before);
}
