//! Operator-level randomized tests: each relational operator against a
//! naive model, plus the row-numbering invariants the compiler relies
//! on. Driven by the in-repo deterministic PRNG so the suite builds
//! offline.

use exrquy_algebra::{AValue, Col, Dag, FunKind, Op, OpId, SortKey};
use exrquy_engine::{Engine, EngineOptions, Item, Table};
use exrquy_xml::rng::SmallRng;
use exrquy_xml::{Catalog, FragArena};
use std::collections::HashMap;
use std::sync::Arc;

fn lit(dag: &mut Dag, cols: Vec<Col>, rows: &[Vec<i64>]) -> OpId {
    dag.add(Op::Lit {
        cols,
        rows: rows
            .iter()
            .map(|r| r.iter().map(|&v| AValue::Int(v)).collect())
            .collect(),
    })
}

fn run(dag: &Dag, root: OpId) -> Table {
    run_with(dag, root, false)
}

/// `root` on the vectorized arm, or on the reference arm when `scalar`.
fn run_with(dag: &Dag, root: OpId, scalar: bool) -> Table {
    let mut arena = FragArena::new(Arc::new(Catalog::new()));
    let opts = EngineOptions {
        scalar,
        ..EngineOptions::default()
    };
    let mut e = Engine::new(dag, &mut arena, opts);
    (*e.eval(root).unwrap()).clone()
}

/// Up to 40 rows of `[0..6, -20..20]` pairs.
fn rows2(rng: &mut SmallRng) -> Vec<Vec<i64>> {
    let n = rng.gen_range(0usize..40);
    (0..n)
        .map(|_| vec![rng.gen_range(0i64..6), rng.gen_range(-20i64..20)])
        .collect()
}

fn vec_i64(rng: &mut SmallRng, lo: i64, hi: i64, max_len: usize) -> Vec<i64> {
    let n = rng.gen_range(0usize..max_len);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// `%` numbers each partition densely 1..k in sort order, regardless
/// of physical row order; row order itself is preserved.
#[test]
fn rownum_is_dense_per_group() {
    let mut rng = SmallRng::seed_from_u64(0x01);
    for _case in 0..96 {
        let rows = rows2(&mut rng);
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM], &rows);
        let rn = dag.add(Op::RowNum {
            input: src,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let t = run(&dag, rn);
        assert_eq!(t.nrows(), rows.len());
        // Group rows; per group the assigned numbers must be a permutation
        // of 1..=k ordered consistently with the item values.
        let mut groups: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
        for (r, row) in rows.iter().enumerate() {
            // Row order preserved: same (iter, item) as the input.
            assert_eq!(t.int(Col::ITER, r), row[0]);
            assert_eq!(t.int(Col::ITEM, r), row[1]);
            groups
                .entry(t.int(Col::ITER, r))
                .or_default()
                .push((t.int(Col::POS, r), t.int(Col::ITEM, r)));
        }
        for (_, mut g) in groups {
            g.sort();
            for (i, &(pos, _)) in g.iter().enumerate() {
                assert_eq!(pos, i as i64 + 1, "not dense: {:?}", &g);
            }
            // Sorting by assigned number must order items ascending.
            for w in g.windows(2) {
                assert!(w[0].1 <= w[1].1, "order violated: {:?}", &g);
            }
        }
    }
}

/// `#` attaches unique values (and the engine's dense fast path for
/// criterion-free `%` matches per-group counting).
#[test]
fn rowid_unique_and_free_rownum_dense() {
    let mut rng = SmallRng::seed_from_u64(0x02);
    for _case in 0..96 {
        let rows = rows2(&mut rng);
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM], &rows);
        let rid = dag.add(Op::RowId {
            input: src,
            new: Col::POS,
        });
        let t = run(&dag, rid);
        let mut seen = std::collections::HashSet::new();
        for r in 0..t.nrows() {
            assert!(seen.insert(t.int(Col::POS, r)), "duplicate row id");
        }
        let free = dag.add(Op::RowNum {
            input: src,
            new: Col::POS,
            order: vec![],
            part: Some(Col::ITER),
        });
        let t = run(&dag, free);
        let mut per_group: HashMap<i64, Vec<i64>> = HashMap::new();
        for r in 0..t.nrows() {
            per_group
                .entry(t.int(Col::ITER, r))
                .or_default()
                .push(t.int(Col::POS, r));
        }
        for (_, mut v) in per_group {
            v.sort_unstable();
            for (i, &p) in v.iter().enumerate() {
                assert_eq!(p, i as i64 + 1);
            }
        }
    }
}

/// Theta-join ≡ the nested-loop definition, pair for pair and in its
/// order — left rows in order, each with its right matches ascending —
/// on both arms.
#[test]
fn thetajoin_matches_nested_loop() {
    let kinds = [
        FunKind::Lt,
        FunKind::Le,
        FunKind::Gt,
        FunKind::Ge,
        FunKind::Eq,
        FunKind::Ne,
    ];
    let mut rng = SmallRng::seed_from_u64(0x03);
    for case in 0..96 {
        let l = vec_i64(&mut rng, -20, 20, 25);
        let r = vec_i64(&mut rng, -20, 20, 25);
        let kind = kinds[case % kinds.len()];
        let mut dag = Dag::new();
        let rows = |v: &[i64]| -> Vec<Vec<i64>> {
            v.iter().zip(0..).map(|(&x, row)| vec![x, row]).collect()
        };
        let lt = lit(&mut dag, vec![Col::ITEM1, Col::POS], &rows(&l));
        let rt = lit(&mut dag, vec![Col::ITEM2, Col::POS1], &rows(&r));
        let tj = dag.add(Op::ThetaJoin {
            l: lt,
            r: rt,
            pred: vec![(Col::ITEM1, kind, Col::ITEM2)],
        });
        let mut expect: Vec<(i64, i64)> = Vec::new();
        for (i, &a) in l.iter().enumerate() {
            for (j, &b) in r.iter().enumerate() {
                let keep = match kind {
                    FunKind::Lt => a < b,
                    FunKind::Le => a <= b,
                    FunKind::Gt => a > b,
                    FunKind::Ge => a >= b,
                    FunKind::Eq => a == b,
                    FunKind::Ne => a != b,
                    _ => unreachable!(),
                };
                if keep {
                    expect.push((i as i64, j as i64));
                }
            }
        }
        for scalar in [false, true] {
            let t = run_with(&dag, tj, scalar);
            let got: Vec<(i64, i64)> = (0..t.nrows())
                .map(|i| (t.int(Col::POS, i), t.int(Col::POS1, i)))
                .collect();
            assert_eq!(got, expect, "{kind:?} scalar {scalar}");
        }
    }
}

/// Difference ≡ the set-definition anti-semijoin.
#[test]
fn difference_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0x04);
    for _case in 0..96 {
        let l = vec_i64(&mut rng, 0, 10, 30);
        let r = vec_i64(&mut rng, 0, 10, 30);
        let mut dag = Dag::new();
        let lv: Vec<Vec<i64>> = l.iter().map(|&v| vec![v]).collect();
        let rv: Vec<Vec<i64>> = r.iter().map(|&v| vec![v]).collect();
        let lt = lit(&mut dag, vec![Col::ITER], &lv);
        let rt = lit(&mut dag, vec![Col::ITER1], &rv);
        let d = dag.add(Op::Difference {
            l: lt,
            r: rt,
            on: vec![(Col::ITER, Col::ITER1)],
        });
        let t = run(&dag, d);
        let rset: std::collections::HashSet<i64> = r.iter().copied().collect();
        let expect: Vec<i64> = l.iter().copied().filter(|v| !rset.contains(v)).collect();
        let got: Vec<i64> = (0..t.nrows()).map(|i| t.int(Col::ITER, i)).collect();
        assert_eq!(got, expect);
    }
}

/// Distinct keeps the first occurrence of each row, in order.
#[test]
fn distinct_keeps_first_occurrences() {
    let mut rng = SmallRng::seed_from_u64(0x05);
    for _case in 0..96 {
        let rows = rows2(&mut rng);
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM], &rows);
        let d = dag.add(Op::Distinct { input: src });
        let t = run(&dag, d);
        let mut seen = std::collections::HashSet::new();
        let mut expect = Vec::new();
        for r in &rows {
            if seen.insert((r[0], r[1])) {
                expect.push((r[0], r[1]));
            }
        }
        let got: Vec<(i64, i64)> = (0..t.nrows())
            .map(|i| (t.int(Col::ITER, i), t.int(Col::ITEM, i)))
            .collect();
        assert_eq!(got, expect);
    }
}

/// EquiJoin ≡ nested-loop equality join (pair multiset).
#[test]
fn equijoin_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0x06);
    for _case in 0..96 {
        let n_l = rng.gen_range(0usize..25);
        let l: Vec<(i64, i64)> = (0..n_l)
            .map(|_| (rng.gen_range(0i64..8), rng.gen_range(0i64..50)))
            .collect();
        let n_r = rng.gen_range(0usize..25);
        let r: Vec<(i64, i64)> = (0..n_r)
            .map(|_| (rng.gen_range(0i64..8), rng.gen_range(0i64..50)))
            .collect();
        let mut dag = Dag::new();
        let lv: Vec<Vec<i64>> = l.iter().map(|&(k, v)| vec![k, v]).collect();
        let rv: Vec<Vec<i64>> = r.iter().map(|&(k, v)| vec![k, v]).collect();
        let lt = lit(&mut dag, vec![Col::ITER, Col::ITEM1], &lv);
        let rt = lit(&mut dag, vec![Col::ITER1, Col::ITEM2], &rv);
        let j = dag.add(Op::EquiJoin {
            l: lt,
            r: rt,
            lcol: Col::ITER,
            rcol: Col::ITER1,
        });
        let t = run(&dag, j);
        let mut got: Vec<(i64, i64, i64)> = (0..t.nrows())
            .map(|i| {
                (
                    t.int(Col::ITER, i),
                    t.int(Col::ITEM1, i),
                    t.int(Col::ITEM2, i),
                )
            })
            .collect();
        got.sort_unstable();
        let mut expect = Vec::new();
        for &(lk, lv_) in &l {
            for &(rk, rv_) in &r {
                if lk == rk {
                    expect.push((lk, lv_, rv_));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

/// Aggregates match straightforward per-group folds.
#[test]
fn aggregates_match_model() {
    use exrquy_algebra::AggrKind;
    let mut rng = SmallRng::seed_from_u64(0x07);
    for _case in 0..96 {
        let rows = rows2(&mut rng);
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM], &rows);
        let mut model: HashMap<i64, Vec<i64>> = HashMap::new();
        for r in &rows {
            model.entry(r[0]).or_default().push(r[1]);
        }
        for kind in [AggrKind::Count, AggrKind::Sum, AggrKind::Max, AggrKind::Min] {
            let a = dag.add(Op::Aggr {
                input: src,
                kind,
                new: Col::RES,
                arg: if kind == AggrKind::Count {
                    None
                } else {
                    Some(Col::ITEM)
                },
                part: Some(Col::ITER),
            });
            let t = run(&dag, a);
            assert_eq!(t.nrows(), model.len());
            for r in 0..t.nrows() {
                let g = &model[&t.int(Col::ITER, r)];
                let got = t.item(Col::RES, r);
                match kind {
                    AggrKind::Count => assert_eq!(got, Item::Int(g.len() as i64)),
                    AggrKind::Sum => {
                        assert_eq!(got, Item::Dbl(g.iter().sum::<i64>() as f64))
                    }
                    AggrKind::Max => {
                        assert_eq!(got, Item::Dbl(*g.iter().max().unwrap() as f64))
                    }
                    AggrKind::Min => {
                        assert_eq!(got, Item::Dbl(*g.iter().min().unwrap() as f64))
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}
