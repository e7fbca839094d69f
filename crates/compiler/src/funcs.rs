//! Built-in function compilation.
//!
//! Aggregates arrive with their argument already wrapped in
//! `fn:unordered(·)` by normalization (Rule FN:COUNT and its analogues),
//! so the `aggr` operators here consume order-free inputs; the column
//! dependency analysis later erases the argument's order computation.

use crate::{CResult, CompileError, Compiler};
use exrquy_algebra::{AValue, AggrKind, Col, FunKind, Op, OpId};
use exrquy_frontend::Expr;
use std::sync::Arc;

/// Scratch column for the `i`-th scalar argument.
fn arg_col(i: usize) -> Col {
    match i {
        0 => Col::ITEM1,
        1 => Col::ITEM2,
        n => Col::sort_key(n - 2),
    }
}

impl Compiler {
    pub(crate) fn compile_call(&mut self, name: &str, args: &[Expr]) -> CResult {
        match (name, args.len()) {
            ("doc", 1) => {
                let Expr::StrLit(url) = &args[0] else {
                    return Err(CompileError::new(
                        exrquy_diag::ErrorCode::XPST0017,
                        "fn:doc requires a string literal URL",
                    ));
                };
                let doc = self.dag.add(Op::Doc {
                    url: Arc::from(url.as_str()),
                });
                let with_pos = self.dag.add(Op::Attach {
                    input: doc,
                    col: Col::POS,
                    value: AValue::Int(1),
                });
                let lp = self.cur_loop();
                let crossed = self.dag.add(Op::Cross { l: lp, r: with_pos });
                Ok(self.canonical(crossed))
            }
            ("collection", 0) => {
                // The whole catalog, one document root per fragment, in
                // collection (= fragment) order; `pos` is the fragment rank.
                let coll = self.dag.add(Op::Collection);
                let lp = self.cur_loop();
                let crossed = self.dag.add(Op::Cross { l: lp, r: coll });
                Ok(self.canonical(crossed))
            }
            ("count", 1) => self.compile_aggregate(AggrKind::Count, &args[0], Some(AValue::Int(0))),
            ("sum", 1) => self.compile_aggregate(AggrKind::Sum, &args[0], Some(AValue::dbl(0.0))),
            ("avg", 1) => self.compile_aggregate(AggrKind::Avg, &args[0], None),
            ("max", 1) => self.compile_aggregate(AggrKind::Max, &args[0], None),
            ("min", 1) => self.compile_aggregate(AggrKind::Min, &args[0], None),
            ("exists", 1)
            | ("empty", 1)
            | ("boolean", 1)
            | ("not", 1)
            | ("true", 0)
            | ("false", 0) => {
                let t = self.compile_truth(&Expr::Call {
                    name: name.to_string(),
                    args: args.to_vec(),
                })?;
                Ok(self.complete_bool(t))
            }
            ("unordered", 1) => {
                // Normally reified by normalization; accept raw calls too.
                self.compile_here(&Expr::Unordered(Box::new(args[0].clone())))
            }
            ("distinct-values", 1) => {
                // Result order is implementation-defined — always `#` (one
                // of the paper's order-indifferent built-ins, §1 (d)).
                let q = self.compile(&args[0])?;
                let ii = self.project_iter_item(q);
                let atomized = self.dag.add(Op::Fun {
                    input: ii,
                    new: Col::RES,
                    kind: FunKind::Atomize,
                    args: vec![Col::ITEM],
                });
                let projected = self.dag.add(Op::Project {
                    input: atomized,
                    cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::RES)],
                });
                let dedup = self.dag.add(Op::Distinct { input: projected });
                let ri = self.dag.add(Op::RowId {
                    input: dedup,
                    new: Col::POS,
                });
                Ok(self.canonical(ri))
            }
            ("string", 0) => self.compile_string(&Expr::ContextItem),
            ("string", 1) => self.compile_string(&args[0]),
            ("data", 1) => {
                let q = self.compile(&args[0])?;
                let atomized = self.dag.add(Op::Fun {
                    input: q,
                    new: Col::RES,
                    kind: FunKind::Atomize,
                    args: vec![Col::ITEM],
                });
                Ok(self.dag.add(Op::Project {
                    input: atomized,
                    cols: vec![
                        (Col::ITER, Col::ITER),
                        (Col::POS, Col::POS),
                        (Col::ITEM, Col::RES),
                    ],
                }))
            }
            ("number", 0) => self.scalar_call(FunKind::ToNum, &[Expr::ContextItem], false, None),
            ("number", 1) => self.scalar_call(FunKind::ToNum, args, false, None),
            ("name", n) | ("local-name", n) if n <= 1 => {
                let target = if n == 0 {
                    vec![Expr::ContextItem]
                } else {
                    args.to_vec()
                };
                self.scalar_call(
                    FunKind::NameOf,
                    &target,
                    false,
                    Some(AValue::Str(Arc::from(""))),
                )
            }
            ("root", 1) => {
                let q = self.compile(&args[0])?;
                let ii = self.project_iter_item(q);
                let step = self.dag.add(Op::Step {
                    input: ii,
                    axis: exrquy_xml::Axis::AncestorOrSelf,
                    test: exrquy_xml::NodeTest::DocumentNode,
                });
                let with_pos = self.dag.add(Op::Attach {
                    input: step,
                    col: Col::POS,
                    value: AValue::Int(1),
                });
                Ok(self.canonical(with_pos))
            }
            ("contains", 2) => {
                self.scalar_call(FunKind::Contains, args, true, Some(AValue::Bool(false)))
            }
            ("starts-with", 2) => {
                self.scalar_call(FunKind::StartsWith, args, true, Some(AValue::Bool(false)))
            }
            ("string-length", 0) => self.scalar_call(
                FunKind::StringLength,
                &[Expr::ContextItem],
                true,
                Some(AValue::Int(0)),
            ),
            ("string-length", 1) => {
                self.scalar_call(FunKind::StringLength, args, true, Some(AValue::Int(0)))
            }
            ("substring", 2) => self.scalar_call(FunKind::Substring2, args, true, None),
            ("substring", 3) => self.scalar_call(FunKind::Substring3, args, true, None),
            ("normalize-space", 0) => {
                self.scalar_call(FunKind::NormalizeSpace, &[Expr::ContextItem], true, None)
            }
            ("normalize-space", 1) => self.scalar_call(FunKind::NormalizeSpace, args, true, None),
            ("substring-before", 2) => self.scalar_call(FunKind::SubstringBefore, args, true, None),
            ("substring-after", 2) => self.scalar_call(FunKind::SubstringAfter, args, true, None),
            ("ends-with", 2) => {
                self.scalar_call(FunKind::EndsWith, args, true, Some(AValue::Bool(false)))
            }
            ("abs", 1) => self.scalar_call(FunKind::Abs, args, true, None),
            ("upper-case", 1) => self.scalar_call(FunKind::UpperCase, args, true, None),
            ("lower-case", 1) => self.scalar_call(FunKind::LowerCase, args, true, None),
            ("translate", 3) => self.scalar_call(FunKind::Translate, args, true, None),
            ("concat", n) if n >= 2 => self.scalar_call(FunKind::Concat, args, true, None),
            ("round", 1) => self.scalar_call(FunKind::Round, args, true, None),
            ("floor", 1) => self.scalar_call(FunKind::Floor, args, true, None),
            ("ceiling", 1) => self.scalar_call(FunKind::Ceiling, args, true, None),
            ("zero-or-one", 1) | ("exactly-one", 1) | ("one-or-more", 1) => {
                // Cardinality assertions are advisory here.
                self.compile(&args[0])
            }
            ("last", 0) | ("position", 0) => {
                // Bound as pseudo-variables by the enclosing predicate's
                // focus scope (leading space: not expressible as user vars).
                let pseudo = format!(" {name}");
                if self.env.contains_key(&pseudo) {
                    self.compile_here(&Expr::Var(pseudo))
                } else {
                    Err(CompileError::new(
                        exrquy_diag::ErrorCode::XPST0017,
                        format!("fn:{name}() is only supported inside predicates"),
                    ))
                }
            }
            _ => Err(CompileError::new(
                exrquy_diag::ErrorCode::XPST0017,
                format!("unsupported function fn:{name}/{}", args.len()),
            )),
        }
    }

    /// Aggregates over a sequence, grouped per iteration, with optional
    /// empty-group completion (`fn:count(()) = 0`).
    fn compile_aggregate(
        &mut self,
        kind: AggrKind,
        arg: &Expr,
        default: Option<AValue>,
    ) -> CResult {
        let q = self.compile(arg)?;
        let ii = self.project_iter_item(q);
        let aggr = self.dag.add(Op::Aggr {
            input: ii,
            kind,
            new: Col::RES,
            arg: if kind == AggrKind::Count {
                None
            } else {
                Some(Col::ITEM)
            },
            part: Some(Col::ITER),
        });
        let completed = match default {
            Some(d) => self.complete_with_default(aggr, Col::RES, d),
            None => aggr,
        };
        Ok(self.singleton(completed, Col::RES))
    }

    /// `fn:string`: the space-joined string value of the sequence.
    fn compile_string(&mut self, arg: &Expr) -> CResult {
        let q = self.compile(arg)?;
        let joined = self.string_join(q);
        Ok(self.singleton(joined, Col::ITEM1))
    }

    /// N-ary per-iteration scalar function: join the singleton views of
    /// all arguments on `iter`, apply `kind`, optionally complete missing
    /// iterations with `default`.
    pub(crate) fn scalar_call(
        &mut self,
        kind: FunKind,
        args: &[Expr],
        atomize: bool,
        default: Option<AValue>,
    ) -> CResult {
        assert!(!args.is_empty() && args.len() <= 10);
        let mut cur: Option<OpId> = None;
        let mut cols = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let q = self.compile(a)?;
            let s = self.scalar(q, arg_col(i), atomize);
            cols.push(arg_col(i));
            cur = Some(match cur {
                None => s,
                Some(acc) => {
                    let mut rename: Vec<(Col, Col)> = vec![(Col::ITER1, Col::ITER)];
                    rename.push((arg_col(i), arg_col(i)));
                    let renamed = self.dag.add(Op::Project {
                        input: s,
                        cols: rename,
                    });
                    let joined = self.dag.add(Op::EquiJoin {
                        l: acc,
                        r: renamed,
                        lcol: Col::ITER,
                        rcol: Col::ITER1,
                    });
                    // Drop the helper join column.
                    let mut keep: Vec<(Col, Col)> = vec![(Col::ITER, Col::ITER)];
                    for c in &cols {
                        keep.push((*c, *c));
                    }
                    self.dag.add(Op::Project {
                        input: joined,
                        cols: keep,
                    })
                }
            });
        }
        let joined = cur.unwrap();
        let f = self.dag.add(Op::Fun {
            input: joined,
            new: Col::RES,
            kind,
            args: cols,
        });
        let result = self.dag.add(Op::Project {
            input: f,
            cols: vec![(Col::ITER, Col::ITER), (Col::RES, Col::RES)],
        });
        let completed = match default {
            Some(d) => self.complete_with_default(result, Col::RES, d),
            None => result,
        };
        Ok(self.singleton(completed, Col::RES))
    }
}
