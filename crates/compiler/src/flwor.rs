//! FLWOR compilation: variable binding (Rules BIND / BIND#), `where`
//! restriction, `order by`, and the join recognition of \[9\].

use crate::{CResult, CompileError, Compiler, Frame};
use exrquy_algebra::{AValue, Col, FunKind, Op, OpId, SortKey};
use exrquy_frontend::{BinOp, Clause, Expr, OrderSpec};

/// Flatten a (possibly `fn:unordered`-wrapped) `and`-conjunction into its
/// conjuncts.
fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Unordered(inner) => split_conjuncts(inner),
        Expr::Binary {
            op: BinOp::And,
            l,
            r,
        } => {
            let mut v = split_conjuncts(l);
            v.extend(split_conjuncts(r));
            v
        }
        other => vec![other],
    }
}

/// Rebuild an `and`-conjunction (None when empty).
fn conjoin(mut es: Vec<Expr>) -> Option<Expr> {
    let first = if es.is_empty() {
        return None;
    } else {
        es.remove(0)
    };
    Some(
        es.into_iter()
            .fold(first, |acc, e| Expr::binary(BinOp::And, acc, e)),
    )
}

/// Bookkeeping for one pushed `for` scope.
pub(crate) struct ForScope {
    var: String,
    pos_var: Option<String>,
    map: OpId,
}

impl Compiler {
    pub(crate) fn compile_flwor(&mut self, e: &Expr) -> CResult {
        let Expr::Flwor {
            clauses,
            order_by,
            reordered,
            ret,
        } = e
        else {
            return Err(CompileError::new(
                exrquy_diag::ErrorCode::XPST0003,
                "compile_flwor on non-FLWOR",
            ));
        };
        if order_by.is_empty() {
            self.compile_clauses(clauses, ret, *reordered)
        } else {
            self.compile_flwor_order_by(clauses, order_by, ret)
        }
    }

    /// Recursive clause processing; each `for` wraps the recursive result
    /// with its one-level `iter→seq` mapping (the
    /// `%pos1:⟨bind,pos⟩‖iter1` of Figure 6).
    fn compile_clauses(&mut self, clauses: &[Clause], ret: &Expr, reordered: bool) -> CResult {
        let Some((first, rest)) = clauses.split_first() else {
            return self.compile(ret);
        };
        match first {
            Clause::Let { var, expr } => {
                // Compile at the variable's own (hoisted) depth so that
                // loop-invariant lets are evaluated once.
                let dq = self.depth_of(expr)?;
                let q = self.at_depth(dq, |c| c.compile(expr))?;
                self.bind_var(var, dq, q);
                let r = self.compile_clauses(rest, ret, reordered);
                self.unbind_var(var);
                r
            }
            Clause::Where(cond) => {
                let t = self.compile_truth(cond)?;
                self.with_loop(t, |c| c.compile_clauses(rest, ret, reordered))
            }
            Clause::For { var, pos_var, seq } => {
                // Join recognition: `for $x in e1 … where a ◦ b …` with the
                // comparison splitting on $x compiles to a theta-join.
                // Intervening `let` clauses are skipped (XQuery is pure, so
                // hoisting the `where` over them preserves semantics)
                // provided the condition does not reference the let-bound
                // variables — the pattern of XMark Q9.
                if pos_var.is_none() {
                    let mut k = 0;
                    let mut let_vars: Vec<&str> = Vec::new();
                    while let Some(Clause::Let { var: lv, .. }) = rest.get(k) {
                        let_vars.push(lv);
                        k += 1;
                    }
                    if let Some(Clause::Where(cond)) = rest.get(k) {
                        let cond_fv = cond.free_vars();
                        if !cond_fv.iter().any(|v| let_vars.contains(&v.as_str())) {
                            // Conjunctive conditions: fuse one comparison
                            // conjunct into the join, keep the rest as an
                            // ordinary where after the fused frame.
                            let conjuncts = split_conjuncts(cond);
                            for (ci, fuse_cond) in conjuncts.iter().enumerate() {
                                // Remaining clauses: the lets, the residual
                                // conjuncts (as a where), then the rest.
                                let mut remaining: Vec<Clause> = rest[..k].to_vec();
                                let residual: Vec<Expr> = conjuncts
                                    .iter()
                                    .enumerate()
                                    .filter(|&(j, _)| j != ci)
                                    .map(|(_, e)| (*e).clone())
                                    .collect();
                                if let Some(residual_cond) = conjoin(residual) {
                                    remaining.push(Clause::Where(residual_cond));
                                }
                                remaining.extend_from_slice(&rest[k + 1..]);
                                if let Some(fused) = self.try_fused_for(
                                    var, seq, fuse_cond, &remaining, ret, reordered,
                                )? {
                                    return Ok(fused);
                                }
                            }
                        }
                    }
                }
                let scope = self.push_for_frame(var, pos_var.clone(), seq, reordered)?;
                let r = self.compile_clauses(rest, ret, reordered);
                self.pop_for_frame(&scope);
                let qr = r?;
                Ok(self.map_back(qr, scope.map))
            }
        }
    }

    /// Rule BIND (ordered) / Rule BIND# (unordered or re-sorted FLWOR):
    /// materialize the bindings of a `for` variable and open its frame.
    pub(crate) fn push_for_frame(
        &mut self,
        var: &str,
        pos_var: Option<String>,
        seq: &Expr,
        force_unordered_bind: bool,
    ) -> Result<ForScope, CompileError> {
        let qb = self.compile(seq)?;
        // Positional variable: dense rank over the binding sequence's pos
        // order ("$p still consistently reflects the position in the
        // binding sequence", §2.1 — even when pos itself is arbitrary).
        let ranked = if pos_var.is_some() {
            self.dag.add(Op::RowNum {
                input: qb,
                new: Col::POS1,
                order: vec![SortKey::asc(Col::POS)],
                part: Some(Col::ITER),
            })
        } else {
            qb
        };
        let qv = if self.ordered() && !force_unordered_bind {
            // % bind:⟨iter,pos⟩ — interaction 3©, sequence order
            // determines iteration order.
            self.dag.add(Op::RowNum {
                input: ranked,
                new: Col::BIND,
                order: vec![SortKey::asc(Col::ITER), SortKey::asc(Col::POS)],
                part: None,
            })
        } else {
            // # bind — Rule BIND#.
            self.dag.add(Op::RowId {
                input: ranked,
                new: Col::BIND,
            })
        };
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
        if let Some(p) = &pos_var {
            let p_item = self.dag.add(Op::Project {
                input: qv,
                cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::POS1)],
            });
            let p_pos = self.dag.add(Op::Attach {
                input: p_item,
                col: Col::POS,
                value: AValue::Int(1),
            });
            let p_enc = self.canonical(p_pos);
            self.bind_var(p, self.depth, p_enc);
        }
        Ok(ForScope {
            var: var.to_string(),
            pos_var,
            map,
        })
    }

    pub(crate) fn pop_for_frame(&mut self, scope: &ForScope) {
        if let Some(p) = &scope.pos_var {
            self.unbind_var(p);
        }
        self.unbind_var(&scope.var);
        self.depth -= 1;
        self.frames.pop();
    }

    /// Map an inner-frame result back one level: interaction 4©
    /// (iteration order determines sequence order) — the `%` that persists
    /// under both ordering modes (Figure 6b) and is only removed by column
    /// dependency analysis.
    pub(crate) fn map_back(&mut self, qr: OpId, map: OpId) -> OpId {
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
        let rn = self.dag.add(Op::RowNum {
            input: joined,
            new: Col::POS1,
            order: vec![SortKey::asc(Col::ITER1), SortKey::asc(Col::POS)],
            part: Some(Col::OUTER),
        });
        self.dag.add(Op::Project {
            input: rn,
            cols: vec![
                (Col::ITER, Col::OUTER),
                (Col::POS, Col::POS1),
                (Col::ITEM, Col::ITEM),
            ],
        })
    }

    // ------------------------------------------------ join recognition

    /// Try to compile `for $x in seq where cond …` as a theta-join \[9\].
    /// Applicable when `cond` is a comparison with exactly one side
    /// depending on `$x`, the `$x` side depends on nothing deeper than the
    /// top level besides `$x`, and the binding sequence is loop-invariant
    /// (depth 0). Returns `None` when the pattern does not apply.
    fn try_fused_for(
        &mut self,
        var: &str,
        seq: &Expr,
        cond: &Expr,
        rest: &[Clause],
        ret: &Expr,
        reordered: bool,
    ) -> Result<Option<OpId>, CompileError> {
        // Strip order-irrelevant wrappers from the condition.
        let mut c = cond;
        loop {
            match c {
                Expr::Unordered(inner) => c = inner,
                Expr::OrderingScope { expr, .. } => c = expr,
                _ => break,
            }
        }
        let Expr::Binary { op, l, r } = c else {
            return Ok(None);
        };
        if !(op.is_general_comparison() || crate::truth::is_value_comparison(*op)) {
            return Ok(None);
        }
        let strip = |e: &Expr| -> Expr {
            let mut e = e.clone();
            loop {
                match e {
                    Expr::Unordered(inner) => e = *inner,
                    other => return other,
                }
            }
        };
        let (l, r) = (strip(l), strip(r));
        let l_vars = l.free_vars();
        let r_vars = r.free_vars();
        let l_uses = l_vars.iter().any(|v| v == var);
        let r_uses = r_vars.iter().any(|v| v == var);
        let (x_side, o_side, x_is_left) = match (l_uses, r_uses) {
            (true, false) => (&l, &r, true),
            (false, true) => (&r, &l, false),
            _ => return Ok(None),
        };
        // The $x side may only reference $x and top-level (depth 0) names.
        let x_side_vars = x_side.free_vars();
        for v in &x_side_vars {
            if v == var {
                continue;
            }
            let entry = if v == "." {
                match self.env.get(".").and_then(|s| s.last()) {
                    Some(e) => e,
                    None => return Ok(None),
                }
            } else {
                match self.env.get(v).and_then(|s| s.last()) {
                    Some(e) => e,
                    None => return Ok(None),
                }
            };
            if entry.depth != 0 {
                return Ok(None);
            }
        }
        // The binding sequence must be loop-invariant (hoistable to 0).
        if self.depth_of(seq)? != 0 {
            return Ok(None);
        }

        // ---- binding candidates, once, at depth 0
        let qb = self.at_depth(0, |c| c.compile(seq))?;
        let qbv = self.dag.add(Op::RowId {
            input: qb,
            new: Col::BIND,
        });

        // ---- $x side over the candidate relation (synthetic frame)
        let cand_loop = self.dag.add(Op::Project {
            input: qbv,
            cols: vec![(Col::ITER, Col::BIND)],
        });
        let cand_map = self.dag.add(Op::Project {
            input: qbv,
            cols: vec![(Col::OUTER, Col::ITER), (Col::INNER, Col::BIND)],
        });
        let x_item = self.dag.add(Op::Project {
            input: qbv,
            cols: vec![(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
        });
        let x_pos = self.dag.add(Op::Attach {
            input: x_item,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let x_enc = self.canonical(x_pos);

        let saved_frames = self.frames.clone();
        let saved_depth = self.depth;
        self.frames.truncate(1);
        self.frames.push(Frame {
            loop_op: cand_loop,
            map_op: Some(cand_map),
        });
        self.depth = 1;
        self.bind_var(var, 1, x_enc);
        let qx = self.compile(x_side);
        self.unbind_var(var);
        self.frames = saved_frames;
        self.depth = saved_depth;
        let qx = qx?;
        let sx = self.scalar(qx, Col::ITEM2, true); // [iter(=cand id), item2]
        let sx_renamed = self.dag.add(Op::Project {
            input: sx,
            cols: vec![(Col::BIND, Col::ITER), (Col::ITEM2, Col::ITEM2)],
        });

        // ---- other side at its own depth
        let d_other = self.depth_of(o_side)?;
        let qo = self.at_depth(d_other, |c| c.compile(o_side))?;
        let so = self.scalar(qo, Col::ITEM1, true); // [iter(d_other), item1]

        // ---- the theta-join (pred oriented as `other ◦' x`)
        let kind = crate::truth::comparison_fun(*op);
        let kind = if x_is_left { kind.mirror() } else { kind };
        let tj = self.dag.add(Op::ThetaJoin {
            l: so,
            r: sx_renamed,
            pred: vec![(Col::ITEM1, kind, Col::ITEM2)],
        });
        // tj: [iter(d_other), item1, bind, item2]
        let pairs0 = self.dag.add(Op::Project {
            input: tj,
            cols: vec![(Col::ITER, Col::ITER), (Col::BIND, Col::BIND)],
        });
        // Bring the other side's iteration up to the current depth.
        let pairs_at_d = match self.compose_maps(d_other, self.depth) {
            None => pairs0,
            Some(m) => {
                let renamed = self.dag.add(Op::Project {
                    input: pairs0,
                    cols: vec![(Col::ITER1, Col::ITER), (Col::BIND, Col::BIND)],
                });
                let joined = self.dag.add(Op::EquiJoin {
                    l: renamed,
                    r: m,
                    lcol: Col::ITER1,
                    rcol: Col::OUTER,
                });
                self.dag.add(Op::Project {
                    input: joined,
                    cols: vec![(Col::ITER, Col::INNER), (Col::BIND, Col::BIND)],
                })
            }
        };
        let pairs_live = self.restrict_to_loop(pairs_at_d);

        // ---- attach candidate pos/item, number the joined iterations
        let qbv_renamed = self.dag.add(Op::Project {
            input: qbv,
            cols: vec![
                (Col::ITER1, Col::BIND),
                (Col::POS, Col::POS),
                (Col::ITEM, Col::ITEM),
            ],
        });
        let full = self.dag.add(Op::EquiJoin {
            l: pairs_live,
            r: qbv_renamed,
            lcol: Col::BIND,
            rcol: Col::ITER1,
        });
        let qv = if self.ordered() && !reordered {
            // Binding order: outer iteration first, then the candidate's
            // position in the binding sequence (Rule BIND's order).
            self.dag.add(Op::RowNum {
                input: full,
                new: Col::POS1,
                order: vec![SortKey::asc(Col::ITER), SortKey::asc(Col::POS)],
                part: None,
            })
        } else {
            self.dag.add(Op::RowId {
                input: full,
                new: Col::POS1,
            })
        };
        let inner_loop = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::ITER, Col::POS1)],
        });
        let map = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::OUTER, Col::ITER), (Col::INNER, Col::POS1)],
        });
        let var_item = self.dag.add(Op::Project {
            input: qv,
            cols: vec![(Col::ITER, Col::POS1), (Col::ITEM, Col::ITEM)],
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
        let r = self.compile_clauses(rest, ret, reordered);
        self.unbind_var(var);
        self.depth -= 1;
        self.frames.pop();
        let qr = r?;
        Ok(Some(self.map_back(qr, map)))
    }

    // ---------------------------------------------------------- order by

    /// FLWOR with `order by`: the tuple stream is generated in arbitrary
    /// order (all `for`s use Rule BIND#) and a single `%` sorts the result
    /// by the key values — order-indifference context (f) of §1.
    fn compile_flwor_order_by(
        &mut self,
        clauses: &[Clause],
        order_by: &[OrderSpec],
        ret: &Expr,
    ) -> CResult {
        let d0 = self.depth;
        let saved_d0_loop = self.frames[d0].loop_op;
        let mut scopes: Vec<ForScope> = Vec::new();
        let mut lets: Vec<String> = Vec::new();
        let mut result: Result<(), CompileError> = Ok(());
        for clause in clauses {
            match clause {
                Clause::For { var, pos_var, seq } => {
                    match self.push_for_frame(var, pos_var.clone(), seq, true) {
                        Ok(s) => scopes.push(s),
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                Clause::Let { var, expr } => {
                    let dq = match self.depth_of(expr) {
                        Ok(d) => d,
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    };
                    match self.at_depth(dq, |c| c.compile(expr)) {
                        Ok(q) => {
                            self.bind_var(var, dq, q);
                            lets.push(var.clone());
                        }
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                Clause::Where(cond) => match self.compile_truth(cond) {
                    Ok(t) => self.frames[self.depth].loop_op = t,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                },
            }
        }

        let body = result.and_then(|()| {
            let df = self.depth;
            // Keys, one scalar per tuple, completed with "" for empty keys
            // so key-less tuples are not dropped.
            let mut keys: Vec<(Col, bool)> = Vec::new();
            let mut key_tables: Vec<OpId> = Vec::new();
            for (i, spec) in order_by.iter().enumerate() {
                let qk = self.compile(&spec.key)?;
                let sk = self.scalar(qk, Col::sort_key(i), true);
                let completed = self.complete_with_default(
                    sk,
                    Col::sort_key(i),
                    AValue::Str(std::sync::Arc::from("")),
                );
                keys.push((Col::sort_key(i), spec.descending));
                key_tables.push(completed);
            }
            let qr = self.compile(ret)?;
            // Single-shot mapping to the FLWOR's base depth.
            let mapped = match self.compose_maps(d0, df) {
                None => {
                    // No for clause: at most one tuple; sorting is a no-op.
                    return Ok(qr);
                }
                Some(m) => {
                    let renamed = self.dag.add(Op::Project {
                        input: qr,
                        cols: vec![
                            (Col::ITER1, Col::ITER),
                            (Col::POS, Col::POS),
                            (Col::ITEM, Col::ITEM),
                        ],
                    });
                    self.dag.add(Op::EquiJoin {
                        l: renamed,
                        r: m,
                        lcol: Col::ITER1,
                        rcol: Col::INNER,
                    })
                }
            };
            // Join the key values onto the result rows (by tuple id).
            let mut cur = mapped;
            for (i, kt) in key_tables.iter().enumerate() {
                let kr = self.dag.add(Op::Project {
                    input: *kt,
                    cols: vec![
                        (Col::sort_key_join(i), Col::ITER),
                        (Col::sort_key(i), Col::sort_key(i)),
                    ],
                });
                cur = self.dag.add(Op::EquiJoin {
                    l: cur,
                    r: kr,
                    lcol: Col::ITER1,
                    rcol: Col::sort_key_join(i),
                });
            }
            let mut sort: Vec<SortKey> = keys
                .iter()
                .map(|&(col, desc)| SortKey { col, desc })
                .collect();
            sort.push(SortKey::asc(Col::ITER1));
            sort.push(SortKey::asc(Col::POS));
            let rn = self.dag.add(Op::RowNum {
                input: cur,
                new: Col::POS1,
                order: sort,
                part: Some(Col::OUTER),
            });
            Ok(self.dag.add(Op::Project {
                input: rn,
                cols: vec![
                    (Col::ITER, Col::OUTER),
                    (Col::POS, Col::POS1),
                    (Col::ITEM, Col::ITEM),
                ],
            }))
        });

        // Unwind scopes and restore state regardless of errors.
        for var in lets.iter().rev() {
            self.unbind_var(var);
        }
        for scope in scopes.iter().rev() {
            self.pop_for_frame(scope);
        }
        self.frames[d0].loop_op = saved_d0_loop;
        body
    }

    /// Arithmetic, comparisons in value position, node comparisons,
    /// logic, node-set operations and ranges.
    pub(crate) fn compile_binary_unary(&mut self, e: &Expr) -> CResult {
        match e {
            Expr::Unary { op, expr } => {
                let q = self.compile(expr)?;
                match op {
                    exrquy_frontend::UnOp::Plus => Ok(q),
                    exrquy_frontend::UnOp::Minus => {
                        let s = self.scalar(q, Col::ITEM1, true);
                        let f = self.dag.add(Op::Fun {
                            input: s,
                            new: Col::RES,
                            kind: FunKind::UnaryMinus,
                            args: vec![Col::ITEM1],
                        });
                        Ok(self.singleton(f, Col::RES))
                    }
                }
            }
            Expr::Binary { op, l, r } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::IDiv | BinOp::Mod => {
                    let kind = match op {
                        BinOp::Add => FunKind::Add,
                        BinOp::Sub => FunKind::Sub,
                        BinOp::Mul => FunKind::Mul,
                        BinOp::Div => FunKind::Div,
                        BinOp::IDiv => FunKind::IDiv,
                        BinOp::Mod => FunKind::Mod,
                        _ => unreachable!(),
                    };
                    self.scalar_binary(kind, l, r, true)
                }
                BinOp::Is => self.scalar_binary(FunKind::NodeIs, l, r, false),
                BinOp::Before => self.scalar_binary(FunKind::NodeBefore, l, r, false),
                BinOp::After => self.scalar_binary(FunKind::NodeAfter, l, r, false),
                BinOp::And | BinOp::Or => {
                    let t = self.compile_truth(e)?;
                    Ok(self.complete_bool(t))
                }
                op if op.is_general_comparison() || crate::truth::is_value_comparison(*op) => {
                    let t = self.compile_truth(e)?;
                    Ok(self.complete_bool(t))
                }
                BinOp::Union | BinOp::Intersect | BinOp::Except => {
                    self.compile_node_set_op(*op, l, r)
                }
                BinOp::To => {
                    // lo to hi: per-iteration integer range, ascending
                    // sequence order (the spec fixes it; no order freedom).
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
                    let expanded = self.dag.add(Op::Range {
                        input: joined,
                        lo: Col::ITEM1,
                        hi: Col::ITEM2,
                        new: Col::ITEM,
                    });
                    let numbered = self.dag.add(Op::RowNum {
                        input: expanded,
                        new: Col::POS,
                        order: vec![SortKey::asc(Col::ITEM)],
                        part: Some(Col::ITER),
                    });
                    Ok(self.canonical(numbered))
                }
                _ => unreachable!(),
            },
            other => Err(CompileError::new(
                exrquy_diag::ErrorCode::XPST0003,
                format!("compile_binary_unary on {other:?}"),
            )),
        }
    }

    /// Per-iteration scalar function of two sequences (arithmetic, node
    /// comparisons): join the singleton views on `iter`.
    fn scalar_binary(&mut self, kind: FunKind, l: &Expr, r: &Expr, atomize: bool) -> CResult {
        let ql = self.compile(l)?;
        let qr = self.compile(r)?;
        let sl = self.scalar(ql, Col::ITEM1, atomize);
        let sr = self.scalar(qr, Col::ITEM2, atomize);
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
        let f = self.dag.add(Op::Fun {
            input: joined,
            new: Col::RES,
            kind,
            args: vec![Col::ITEM1, Col::ITEM2],
        });
        Ok(self.singleton(f, Col::RES))
    }

    /// Node-set operations: `∪̇`/`⋈`/`\` + δ, then doc-order `pos`
    /// derivation — `%` under ordered (interaction 1©), free `#` under
    /// unordered. §4.2's "trading `|` for `,`" falls out when column
    /// dependency analysis later removes the `#`'s input ordering needs.
    fn compile_node_set_op(&mut self, op: BinOp, l: &Expr, r: &Expr) -> CResult {
        let ql = self.compile(l)?;
        let qr = self.compile(r)?;
        let il = self.project_iter_item(ql);
        let ir = self.project_iter_item(qr);
        let combined = match op {
            BinOp::Union => self.dag.add(Op::Union { l: il, r: ir }),
            BinOp::Intersect => {
                let renamed = self.dag.add(Op::Project {
                    input: ir,
                    cols: vec![(Col::ITER1, Col::ITER), (Col::ITEM1, Col::ITEM)],
                });
                let joined = self.dag.add(Op::EquiJoin {
                    l: il,
                    r: renamed,
                    lcol: Col::ITER,
                    rcol: Col::ITER1,
                });
                let same = self.dag.add(Op::Fun {
                    input: joined,
                    new: Col::RES,
                    kind: FunKind::NodeIs,
                    args: vec![Col::ITEM, Col::ITEM1],
                });
                let sel = self.dag.add(Op::Select {
                    input: same,
                    col: Col::RES,
                });
                self.project_iter_item(sel)
            }
            BinOp::Except => {
                let renamed = self.dag.add(Op::Project {
                    input: ir,
                    cols: vec![(Col::ITER1, Col::ITER), (Col::ITEM1, Col::ITEM)],
                });
                self.dag.add(Op::Difference {
                    l: il,
                    r: renamed,
                    on: vec![(Col::ITER, Col::ITER1), (Col::ITEM, Col::ITEM1)],
                })
            }
            _ => unreachable!(),
        };
        let dedup = self.dag.add(Op::Distinct { input: combined });
        let q = if self.ordered() {
            let rn = self.dag.add(Op::RowNum {
                input: dedup,
                new: Col::POS,
                order: vec![SortKey::asc(Col::ITEM)],
                part: Some(Col::ITER),
            });
            self.canonical(rn)
        } else {
            let ri = self.dag.add(Op::RowId {
                input: dedup,
                new: Col::POS,
            });
            self.canonical(ri)
        };
        Ok(q)
    }
}
