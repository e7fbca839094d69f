//! Path expressions: location steps (Rules LOC / LOC#), predicates, and
//! general step expressions (`e1/(…)`) with their doc-order semantics.

use crate::{CResult, CompileError, Compiler, Frame};
use exrquy_algebra::{AValue, AggrKind, Col, FunKind, Op, OpId, SortKey};
use exrquy_frontend::{Expr, NodeTestAst};
use exrquy_xml::NodeTest;

impl Compiler {
    pub(crate) fn resolve_test(&mut self, t: &NodeTestAst) -> NodeTest {
        match t {
            NodeTestAst::AnyKind => NodeTest::AnyKind,
            NodeTestAst::Wildcard => NodeTest::Wildcard,
            NodeTestAst::Name(n) => NodeTest::Name(self.intern(n)),
            NodeTestAst::Text => NodeTest::Text,
            NodeTestAst::Comment => NodeTest::Comment,
            NodeTestAst::Pi(None) => NodeTest::Pi(None),
            NodeTestAst::Pi(Some(t)) => NodeTest::Pi(Some(self.intern(t))),
            NodeTestAst::Element => NodeTest::Element,
            NodeTestAst::DocumentNode => NodeTest::DocumentNode,
        }
    }

    pub(crate) fn compile_path(&mut self, e: &Expr) -> CResult {
        match e {
            Expr::PathStep {
                input,
                axis,
                test,
                predicates,
            } => {
                let qi = self.compile(input)?;
                let test = self.resolve_test(test);
                let ctx = self.project_iter_item(qi);
                let step = self.dag.add(Op::Step {
                    input: ctx,
                    axis: *axis,
                    test,
                });
                // Interaction 1© (doc → seq): Rule LOC derives pos from the
                // order-preserving node identifiers; Rule LOC# attaches
                // arbitrary pos instead.
                let mut q = if self.ordered() {
                    let r = self.dag.add(Op::RowNum {
                        input: step,
                        new: Col::POS,
                        order: vec![SortKey::asc(Col::ITEM)],
                        part: Some(Col::ITER),
                    });
                    self.canonical(r)
                } else {
                    let r = self.dag.add(Op::RowId {
                        input: step,
                        new: Col::POS,
                    });
                    self.canonical(r)
                };
                for p in predicates {
                    q = self.apply_predicate(q, p)?;
                }
                Ok(q)
            }
            Expr::Filter { input, predicate } => {
                let q = self.compile(input)?;
                self.apply_predicate(q, predicate)
            }
            Expr::PathSeq { input, step } => {
                let qi = self.compile(input)?;
                // Iterate `step` once per context node, like a for-binding
                // over the input nodes; the node results are then combined
                // duplicate-free in document order (ordered mode) or
                // arbitrary order (Rule LOC#-analogue).
                let qr = self.with_focus_over(qi, |c| c.compile(step))?;
                let ii = self.project_iter_item(qr);
                let dedup = self.dag.add(Op::Distinct { input: ii });
                let q = if self.ordered() {
                    let r = self.dag.add(Op::RowNum {
                        input: dedup,
                        new: Col::POS,
                        order: vec![SortKey::asc(Col::ITEM)],
                        part: Some(Col::ITER),
                    });
                    self.canonical(r)
                } else {
                    let r = self.dag.add(Op::RowId {
                        input: dedup,
                        new: Col::POS,
                    });
                    self.canonical(r)
                };
                Ok(q)
            }
            other => Err(CompileError::new(
                exrquy_diag::ErrorCode::XPST0003,
                format!("compile_path on non-path expression {other:?}"),
            )),
        }
    }

    /// Open an iteration scope with one iteration per row of `q`
    /// (`[iter,pos,item]`), binding the context item, run `f`, and map its
    /// result back: the result rows are re-keyed to the *outer* iterations
    /// with no sequence-order derivation (callers decide what order means).
    pub(crate) fn with_focus_over(
        &mut self,
        q: OpId,
        f: impl FnOnce(&mut Self) -> CResult,
    ) -> CResult {
        let qv = self.dag.add(Op::RowId {
            input: q,
            new: Col::BIND,
        });
        let inner_loop = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::ITER, Col::BIND)],
        });
        let map = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::OUTER, Col::ITER), (Col::INNER, Col::BIND)],
        });
        let focus_item = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
        });
        let focus_pos = self.dag.add(Op::Attach {
            input: focus_item,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let focus = self.canonical(focus_pos);

        self.frames.push(Frame {
            loop_op: inner_loop,
            map_op: Some(map),
        });
        self.depth += 1;
        self.bind_var(".", self.depth, focus);
        let result = f(self);
        self.unbind_var(".");
        self.depth -= 1;
        self.frames.pop();
        let qr = result?;

        // Map back: inner iterations fold into their outer iteration.
        let renamed = self.dag.add(Op::Project {
            input: qr,
            cols: vec![
                (Col::ITER1, Col::ITER),
                (Col::POS, Col::POS),
                (Col::ITEM, Col::ITEM),
            ],
        });
        let joined = self.dag.add(Op::EquiJoin {
            l: renamed,
            r: map,
            lcol: Col::ITER1,
            rcol: Col::INNER,
        });
        Ok(self.dag.add(Op::Project {
            input: joined,
            cols: vec![
                (Col::ITER, Col::OUTER),
                (Col::POS, Col::POS),
                (Col::ITEM, Col::ITEM),
            ],
        }))
    }

    /// Apply one predicate to a sequence encoding.
    pub(crate) fn apply_predicate(&mut self, q: OpId, pred: &Expr) -> CResult {
        // Positional predicates: integer literals and fn:last().
        match pred {
            Expr::IntLit(n) => return self.positional_predicate(q, Positional::At(*n)),
            Expr::Call { name, args } if name == "last" && args.is_empty() => {
                return self.positional_predicate(q, Positional::Last)
            }
            _ => {}
        }
        // General predicate: evaluate per context row, keep rows whose
        // predicate is true (EBV). When the predicate observes the focus
        // position (`position()`/`last()`), the dense per-iteration rank is
        // materialized and bound as pseudo-variables; otherwise the focus
        // scope iterates in arbitrary order.
        let needs_position = uses_focus_position(pred);
        let ranked = if needs_position {
            self.dag.add(Op::RowNum {
                input: q,
                new: Col::POS1,
                order: vec![SortKey::asc(Col::POS)],
                part: Some(Col::ITER),
            })
        } else {
            q
        };
        let qv = self.dag.add(Op::RowId {
            input: ranked,
            new: Col::BIND,
        });
        let inner_loop = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::ITER, Col::BIND)],
        });
        let map = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::OUTER, Col::ITER), (Col::INNER, Col::BIND)],
        });
        let focus_item = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
        });
        let focus_pos = self.dag.add(Op::Attach {
            input: focus_item,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let focus = self.canonical(focus_pos);

        self.frames.push(Frame {
            loop_op: inner_loop,
            map_op: Some(map),
        });
        self.depth += 1;
        self.bind_var(".", self.depth, focus);
        if needs_position {
            // position(): the focus rank; last(): the focus sequence size.
            let pos_item = self.dag.add(Op::Project {
                input: qv,
                cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::POS1)],
            });
            let pos_enc0 = self.dag.add(Op::Attach {
                input: pos_item,
                col: Col::POS,
                value: AValue::Int(1),
            });
            let pos_enc = self.canonical(pos_enc0);
            self.bind_var(" position", self.depth, pos_enc);

            let counts = self.dag.add(Op::Aggr {
                input: q,
                kind: exrquy_algebra::AggrKind::Count,
                new: Col::RES,
                arg: None,
                part: Some(Col::ITER),
            });
            let counts_renamed = self.dag.add(Op::Project {
                input: counts,
                cols: vec![(Col::ITER1, Col::ITER), (Col::RES, Col::RES)],
            });
            let joined = self.dag.add(Op::EquiJoin {
                l: qv,
                r: counts_renamed,
                lcol: Col::ITER,
                rcol: Col::ITER1,
            });
            let last_item = self.dag.add(Op::Project {
                input: joined,
                cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::RES)],
            });
            let last_enc0 = self.dag.add(Op::Attach {
                input: last_item,
                col: Col::POS,
                value: AValue::Int(1),
            });
            let last_enc = self.canonical(last_enc0);
            self.bind_var(" last", self.depth, last_enc);
        }
        let truth = self.compile_truth(pred);
        if needs_position {
            self.unbind_var(" last");
            self.unbind_var(" position");
        }
        self.unbind_var(".");
        self.depth -= 1;
        self.frames.pop();
        let keep = truth?; // [iter] of satisfied context rows (= bind ids)

        let keep_renamed = self.dag.add(Op::Project {
            input: keep,
            cols: vec![(Col::ITER1, Col::ITER)],
        });
        let joined = self.dag.add(Op::EquiJoin {
            l: qv,
            r: keep_renamed,
            lcol: Col::BIND,
            rcol: Col::ITER1,
        });
        Ok(self.canonical(joined))
    }

    fn positional_predicate(&mut self, q: OpId, which: Positional) -> CResult {
        // Dense per-iteration rank over whatever pos order the sequence
        // carries (arbitrary pos ⇒ an arbitrary-but-consistent pick, the
        // admissible nondeterminism of unordered contexts; cf. the paper's
        // discussion of `unordered { $t//c[2] }`).
        let ranked = self.dag.add(Op::RowNum {
            input: q,
            new: Col::POS1,
            order: vec![SortKey::asc(Col::POS)],
            part: Some(Col::ITER),
        });
        let selected = match which {
            Positional::At(n) => {
                let with_n = self.dag.add(Op::Attach {
                    input: ranked,
                    col: Col::ITEM1,
                    value: AValue::Int(n),
                });
                let cmp = self.dag.add(Op::Fun {
                    input: with_n,
                    new: Col::RES,
                    kind: FunKind::Eq,
                    args: vec![Col::POS1, Col::ITEM1],
                });
                self.dag.add(Op::Select {
                    input: cmp,
                    col: Col::RES,
                })
            }
            Positional::Last => {
                let counts = self.dag.add(Op::Aggr {
                    input: ranked,
                    kind: AggrKind::Count,
                    new: Col::ITEM1,
                    arg: None,
                    part: Some(Col::ITER),
                });
                let counts_renamed = self.dag.add(Op::Project {
                    input: counts,
                    cols: vec![(Col::ITER1, Col::ITER), (Col::ITEM1, Col::ITEM1)],
                });
                let joined = self.dag.add(Op::EquiJoin {
                    l: ranked,
                    r: counts_renamed,
                    lcol: Col::ITER,
                    rcol: Col::ITER1,
                });
                let cmp = self.dag.add(Op::Fun {
                    input: joined,
                    new: Col::RES,
                    kind: FunKind::Eq,
                    args: vec![Col::POS1, Col::ITEM1],
                });
                self.dag.add(Op::Select {
                    input: cmp,
                    col: Col::RES,
                })
            }
        };
        Ok(self.canonical(selected))
    }
}

enum Positional {
    At(i64),
    Last,
}

/// Does `pred` call `position()`/`last()` against *this* focus (i.e. not
/// inside a nested predicate, which establishes its own focus)?
fn uses_focus_position(e: &Expr) -> bool {
    match e {
        Expr::Call { name, args } if (name == "position" || name == "last") && args.is_empty() => {
            true
        }
        // Nested predicates re-focus; don't descend into them.
        Expr::PathStep { input, .. } => uses_focus_position(input),
        Expr::Filter { input, .. } => uses_focus_position(input),
        Expr::PathSeq { input, .. } => uses_focus_position(input),
        other => {
            let mut found = false;
            other.for_each_child(|c| {
                if uses_focus_position(c) {
                    found = true;
                }
            });
            found
        }
    }
}
