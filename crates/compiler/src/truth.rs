//! Boolean contexts: effective boolean values, quantifiers, and the
//! existential general comparisons.
//!
//! `compile_truth(e)` produces a plan for the *set of live iterations in
//! which `e`'s EBV is true* — a single-column `[iter]` table. `where`,
//! `if`, predicates and quantifiers consume this form directly; when a
//! boolean expression is used as a value, [`Compiler::complete_bool`]
//! turns the iteration set back into a `true`/`false` singleton sequence
//! per live iteration.
//!
//! General comparisons have existential semantics over both operand
//! sequences; per the paper's QUANT-based normalization their operand
//! *order* is unobservable, which is why [`Compiler::comparison_pairs`]
//! builds them from plain joins over unordered `iter|item` views.

use crate::{CResult, CompileError, Compiler, Frame};
use exrquy_algebra::{AValue, AggrKind, Col, FunKind, Op, OpId};
use exrquy_frontend::{BinOp, Expr, Quant};

impl Compiler {
    /// Iterations (of the current loop) in which `e` is true.
    pub(crate) fn compile_truth(&mut self, e: &Expr) -> CResult {
        match e {
            Expr::Unordered(inner) => self.compile_truth(inner),
            Expr::OrderingScope { mode, expr } => {
                self.mode.push(*mode);
                let r = self.compile_truth(expr);
                self.mode.pop();
                r
            }
            Expr::Binary {
                op: BinOp::And,
                l,
                r,
            } => {
                let tl = self.compile_truth(l)?;
                let tr = self.compile_truth(r)?;
                let renamed = self.dag.add(Op::Project {
                    input: tr,
                    cols: vec![(Col::ITER1, Col::ITER)],
                });
                let both = self.dag.add(Op::EquiJoin {
                    l: tl,
                    r: renamed,
                    lcol: Col::ITER,
                    rcol: Col::ITER1,
                });
                Ok(self.dag.add(Op::Project {
                    input: both,
                    cols: vec![(Col::ITER, Col::ITER)],
                }))
            }
            Expr::Binary {
                op: BinOp::Or,
                l,
                r,
            } => {
                let tl = self.compile_truth(l)?;
                let tr = self.compile_truth(r)?;
                let u = self.dag.add(Op::Union { l: tl, r: tr });
                Ok(self.dag.add(Op::Distinct { input: u }))
            }
            Expr::Binary { op, l, r } if op.is_general_comparison() || is_value_comparison(*op) => {
                let pairs = self.comparison_pairs(*op, l, r)?;
                let projected = self.dag.add(Op::Project {
                    input: pairs,
                    cols: vec![(Col::ITER, Col::ITER)],
                });
                Ok(self.dag.add(Op::Distinct { input: projected }))
            }
            Expr::Call { name, args } if name == "exists" && args.len() == 1 => {
                let q = self.compile(&args[0])?;
                let p = self.dag.add(Op::Project {
                    input: q,
                    cols: vec![(Col::ITER, Col::ITER)],
                });
                Ok(self.dag.add(Op::Distinct { input: p }))
            }
            Expr::Call { name, args } if name == "empty" && args.len() == 1 => {
                let ex = self.compile_truth(&Expr::Call {
                    name: "exists".into(),
                    args: args.clone(),
                })?;
                Ok(self.loop_minus(ex))
            }
            Expr::Call { name, args } if name == "not" && args.len() == 1 => {
                let t = self.compile_truth(&args[0])?;
                Ok(self.loop_minus(t))
            }
            Expr::Call { name, args } if name == "boolean" && args.len() == 1 => {
                self.compile_truth(&args[0])
            }
            Expr::Call { name, args } if name == "true" && args.is_empty() => Ok(self.cur_loop()),
            Expr::Call { name, args } if name == "false" && args.is_empty() => {
                Ok(self.dag.add(Op::Lit {
                    cols: vec![Col::ITER],
                    rows: vec![],
                }))
            }
            Expr::Quantified {
                quant,
                var,
                domain,
                satisfies,
            } => self.compile_quantifier(*quant, var, domain, satisfies),
            // Generic: evaluate and take the per-iteration EBV.
            other => {
                let q = self.compile(other)?;
                let ebv = self.dag.add(Op::Aggr {
                    input: q,
                    kind: AggrKind::Ebv,
                    new: Col::RES,
                    arg: Some(Col::ITEM),
                    part: Some(Col::ITER),
                });
                let sel = self.dag.add(Op::Select {
                    input: ebv,
                    col: Col::RES,
                });
                Ok(self.dag.add(Op::Project {
                    input: sel,
                    cols: vec![(Col::ITER, Col::ITER)],
                }))
            }
        }
    }

    /// `loop \ t` — the live iterations not in `t`.
    pub(crate) fn loop_minus(&mut self, t: OpId) -> OpId {
        let lp = self.cur_loop();
        let renamed = self.dag.add(Op::Project {
            input: t,
            cols: vec![(Col::ITER1, Col::ITER)],
        });
        self.dag.add(Op::Difference {
            l: lp,
            r: renamed,
            on: vec![(Col::ITER, Col::ITER1)],
        })
    }

    /// Complete a truth set to a boolean singleton per live iteration.
    pub(crate) fn complete_bool(&mut self, t: OpId) -> OpId {
        let f = self.loop_minus(t);
        let t_attach = self.dag.add(Op::Attach {
            input: t,
            col: Col::ITEM,
            value: AValue::Bool(true),
        });
        let f_attach = self.dag.add(Op::Attach {
            input: f,
            col: Col::ITEM,
            value: AValue::Bool(false),
        });
        let u = self.dag.add(Op::Union {
            l: t_attach,
            r: f_attach,
        });
        let with_pos = self.dag.add(Op::Attach {
            input: u,
            col: Col::POS,
            value: AValue::Int(1),
        });
        self.canonical(with_pos)
    }

    /// Join producing the qualifying `(x, y)` pairs of the existential
    /// comparison `l ◦ r`, one row per pair, carrying the current-loop
    /// `iter`. Both operand orders are immaterial (paper §2.2) — operands
    /// are consumed as unordered `iter|item` views.
    pub(crate) fn comparison_pairs(&mut self, op: BinOp, l: &Expr, r: &Expr) -> CResult {
        let kind = comparison_fun(op);
        let ql = self.compile(l)?;
        let qr = self.compile(r)?;
        let sl = self.scalar(ql, Col::ITEM1, true);
        let sr = self.scalar(qr, Col::ITEM2, true);
        let sr_renamed = self.dag.add(Op::Project {
            input: sr,
            cols: vec![(Col::ITER1, Col::ITER), (Col::ITEM2, Col::ITEM2)],
        });
        let joined = self.dag.add(Op::EquiJoin {
            l: sl,
            r: sr_renamed,
            lcol: Col::ITER,
            rcol: Col::ITER1,
        });
        let cmp = self.dag.add(Op::Fun {
            input: joined,
            new: Col::RES,
            kind,
            args: vec![Col::ITEM1, Col::ITEM2],
        });
        Ok(self.dag.add(Op::Select {
            input: cmp,
            col: Col::RES,
        }))
    }

    /// Quantifiers (Rule QUANT): the domain is iterated in arbitrary order
    /// (`# bind`, regardless of ordering mode).
    fn compile_quantifier(
        &mut self,
        quant: Quant,
        var: &str,
        domain: &Expr,
        satisfies: &Expr,
    ) -> CResult {
        let qd = self.compile(domain)?;
        let qv = self.dag.add(Op::RowId {
            input: qd,
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
        let var_item = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
        });
        let var_pos = self.dag.add(Op::Attach {
            input: var_item,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let var_enc = self.canonical(var_pos);

        self.frames.push(Frame {
            loop_op: inner_loop,
            map_op: Some(map),
        });
        self.depth += 1;
        self.bind_var(var, self.depth, var_enc);
        let sat = self.compile_truth(satisfies);
        self.unbind_var(var);
        self.depth -= 1;
        self.frames.pop();
        let sat = sat?;

        match quant {
            Quant::Some => {
                // Outer iterations with at least one satisfying binding.
                let renamed = self.dag.add(Op::Project {
                    input: sat,
                    cols: vec![(Col::ITER1, Col::ITER)],
                });
                let joined = self.dag.add(Op::EquiJoin {
                    l: renamed,
                    r: map,
                    lcol: Col::ITER1,
                    rcol: Col::INNER,
                });
                let outer = self.dag.add(Op::Project {
                    input: joined,
                    cols: vec![(Col::ITER, Col::OUTER)],
                });
                Ok(self.dag.add(Op::Distinct { input: outer }))
            }
            Quant::Every => {
                // loop \ {outer iterations with a non-satisfying binding}.
                let sat_renamed = self.dag.add(Op::Project {
                    input: sat,
                    cols: vec![(Col::ITER1, Col::ITER)],
                });
                let unsat = self.dag.add(Op::Difference {
                    l: inner_loop,
                    r: sat_renamed,
                    on: vec![(Col::ITER, Col::ITER1)],
                });
                let unsat_renamed = self.dag.add(Op::Project {
                    input: unsat,
                    cols: vec![(Col::ITER1, Col::ITER)],
                });
                let joined = self.dag.add(Op::EquiJoin {
                    l: unsat_renamed,
                    r: map,
                    lcol: Col::ITER1,
                    rcol: Col::INNER,
                });
                let bad = self.dag.add(Op::Project {
                    input: joined,
                    cols: vec![(Col::ITER, Col::OUTER)],
                });
                let bad = self.dag.add(Op::Distinct { input: bad });
                Ok(self.loop_minus(bad))
            }
        }
    }

    /// `if`/quantifier in value position, and boolean-valued binaries.
    pub(crate) fn compile_boolean_shaped(&mut self, e: &Expr) -> CResult {
        match e {
            Expr::If { cond, then, els } => {
                let t = self.compile_truth(cond)?;
                let f = self.loop_minus(t);
                let q_then = self.with_loop(t, |c| c.compile(then))?;
                let q_els = self.with_loop(f, |c| c.compile(els))?;
                Ok(self.dag.add(Op::Union {
                    l: q_then,
                    r: q_els,
                }))
            }
            Expr::Quantified { .. } => {
                let t = self.compile_truth(e)?;
                Ok(self.complete_bool(t))
            }
            other => Err(CompileError::new(
                exrquy_diag::ErrorCode::XPST0003,
                format!("compile_boolean_shaped on {other:?}"),
            )),
        }
    }
}

/// Is this one of the six value comparisons?
pub(crate) fn is_value_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::ValEq | BinOp::ValNe | BinOp::ValLt | BinOp::ValLe | BinOp::ValGt | BinOp::ValGe
    )
}

/// Map a comparison [`BinOp`] to its row-level [`FunKind`].
pub(crate) fn comparison_fun(op: BinOp) -> FunKind {
    match op {
        BinOp::GenEq | BinOp::ValEq => FunKind::Eq,
        BinOp::GenNe | BinOp::ValNe => FunKind::Ne,
        BinOp::GenLt | BinOp::ValLt => FunKind::Lt,
        BinOp::GenLe | BinOp::ValLe => FunKind::Le,
        BinOp::GenGt | BinOp::ValGt => FunKind::Gt,
        BinOp::GenGe | BinOp::ValGe => FunKind::Ge,
        other => panic!("not a comparison: {other:?}"),
    }
}
