//! Plan-building helpers: canonical projections, constants, sequence
//! concatenation, loop restriction and lifting through map relations.

use crate::{CResult, CompileError, Compiler};
use exrquy_algebra::{AValue, AggrKind, Col, Op, OpId, SortKey};

impl Compiler {
    /// Project `q` to the canonical `[iter, pos, item]` layout.
    pub(crate) fn canonical(&mut self, q: OpId) -> OpId {
        self.dag.add(Op::Project {
            input: q,
            cols: vec![
                (Col::ITER, Col::ITER),
                (Col::POS, Col::POS),
                (Col::ITEM, Col::ITEM),
            ],
        })
    }

    /// Project `q` to `[iter, item]` (step/aggregate inputs).
    pub(crate) fn project_iter_item(&mut self, q: OpId) -> OpId {
        self.dag.add(Op::Project {
            input: q,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        })
    }

    /// The empty sequence at the current loop.
    pub(crate) fn empty_seq(&mut self) -> OpId {
        self.dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::POS, Col::ITEM],
            rows: vec![],
        })
    }

    /// A constant singleton sequence: `loop × pos|1 × item|v`.
    pub(crate) fn const_item(&mut self, v: AValue) -> OpId {
        let lp = self.cur_loop();
        let with_pos = self.dag.add(Op::Attach {
            input: lp,
            col: Col::POS,
            value: AValue::Int(1),
        });
        let with_item = self.dag.add(Op::Attach {
            input: with_pos,
            col: Col::ITEM,
            value: v,
        });
        self.canonical(with_item)
    }

    /// `∪̇` of the (non-empty) `qs`, each tagged with its 1-based
    /// position as `ord`: `[iter, pos, item, ord]`. The unions pair up
    /// as a balanced tree, so a row is copied log₂ n times, not n/2.
    pub(crate) fn tagged_union(&mut self, qs: &[OpId]) -> OpId {
        let mut level: Vec<OpId> = Vec::with_capacity(qs.len());
        for (i, &q) in qs.iter().enumerate() {
            level.push(self.dag.add(Op::Attach {
                input: q,
                col: Col::ORD,
                value: AValue::Int(i as i64 + 1),
            }));
        }
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match *pair {
                    [l, r] => self.dag.add(Op::Union { l, r }),
                    _ => pair[0],
                })
                .collect();
        }
        level[0]
    }

    /// Concatenate sequence encodings: `∪̇` + `% pos1:⟨ord,pos⟩‖iter`
    /// (iteration-internal sequence order; interaction 4© stays intact in
    /// every ordering mode — see Figure 3).
    pub(crate) fn concat_sequences(&mut self, qs: &[OpId]) -> OpId {
        match qs.len() {
            0 => return self.empty_seq(),
            1 => return qs[0],
            _ => {}
        }
        let u = self.tagged_union(qs);
        let renum = self.dag.add(Op::RowNum {
            input: u,
            new: Col::POS1,
            order: vec![SortKey::asc(Col::ORD), SortKey::asc(Col::POS)],
            part: Some(Col::ITER),
        });
        self.dag.add(Op::Project {
            input: renum,
            cols: vec![
                (Col::ITER, Col::ITER),
                (Col::POS, Col::POS1),
                (Col::ITEM, Col::ITEM),
            ],
        })
    }

    /// Keep only rows whose `iter` is a live iteration of the current
    /// loop (semijoin with the loop relation).
    pub(crate) fn restrict_to_loop(&mut self, q: OpId) -> OpId {
        let lp = self.cur_loop();
        if lp == q {
            return q;
        }
        let renamed = self.dag.add(Op::Project {
            input: lp,
            cols: vec![(Col::ITER1, Col::ITER)],
        });
        let joined = self.dag.add(Op::EquiJoin {
            l: q,
            r: renamed,
            lcol: Col::ITER,
            rcol: Col::ITER1,
        });
        let keep: Vec<(Col, Col)> = self
            .dag
            .schema(q)
            .to_vec()
            .into_iter()
            .map(|c| (c, c))
            .collect();
        self.dag.add(Op::Project {
            input: joined,
            cols: keep,
        })
    }

    /// Lift a value computed at depth `from` into the iteration scope at
    /// depth `to`, joining through the intermediate map relations.
    pub(crate) fn lift(&mut self, mut q: OpId, from: usize, to: usize) -> OpId {
        debug_assert!(from <= to);
        for level in from + 1..=to {
            let map = self.frames[level]
                .map_op
                .expect("non-root frame lacks a map relation");
            let mut cols: Vec<(Col, Col)> = vec![(Col::ITER1, Col::ITER)];
            for c in self.dag.schema(q).to_vec() {
                if c != Col::ITER {
                    cols.push((c, c));
                }
            }
            let renamed = self.dag.add(Op::Project { input: q, cols });
            let joined = self.dag.add(Op::EquiJoin {
                l: renamed,
                r: map,
                lcol: Col::ITER1,
                rcol: Col::OUTER,
            });
            let mut back: Vec<(Col, Col)> = vec![(Col::ITER, Col::INNER)];
            for c in self.dag.schema(renamed).to_vec() {
                if c != Col::ITER1 {
                    back.push((c, c));
                }
            }
            q = self.dag.add(Op::Project {
                input: joined,
                cols: back,
            });
        }
        q
    }

    /// Compose the map relations from depth `from` (exclusive) up to depth
    /// `to` into a single `outer|inner` relation mapping `iter@from` to
    /// `iter@to`. Used by join recognition.
    pub(crate) fn compose_maps(&mut self, from: usize, to: usize) -> Option<OpId> {
        if from == to {
            return None;
        }
        let mut m = self.frames[from + 1].map_op.expect("missing map");
        for level in from + 2..=to {
            let next = self.frames[level].map_op.expect("missing map");
            // m: outer(iter@from) | inner(iter@level-1)
            // next: outer(iter@level-1) | inner(iter@level)
            let next_renamed = self.dag.add(Op::Project {
                input: next,
                cols: vec![(Col::ITER1, Col::OUTER), (Col::POS1, Col::INNER)],
            });
            let joined = self.dag.add(Op::EquiJoin {
                l: m,
                r: next_renamed,
                lcol: Col::INNER,
                rcol: Col::ITER1,
            });
            m = self.dag.add(Op::Project {
                input: joined,
                cols: vec![(Col::OUTER, Col::OUTER), (Col::INNER, Col::POS1)],
            });
        }
        Some(m)
    }

    /// Per-iteration scalar view of `q`: `[iter, out_col]`, with node
    /// items atomized to their string values when `atomize` is set.
    pub(crate) fn scalar(&mut self, q: OpId, out: Col, atomize: bool) -> OpId {
        let ii = self.project_iter_item(q);
        let v = if atomize {
            let a = self.dag.add(Op::Fun {
                input: ii,
                new: Col::RES,
                kind: exrquy_algebra::FunKind::Atomize,
                args: vec![Col::ITEM],
            });
            self.dag.add(Op::Project {
                input: a,
                cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::RES)],
            })
        } else {
            ii
        };
        if out == Col::ITEM {
            v
        } else {
            self.dag.add(Op::Project {
                input: v,
                cols: vec![(Col::ITER, Col::ITER), (out, Col::ITEM)],
            })
        }
    }

    /// Turn a per-iteration value table `[iter, value_col]` into the
    /// canonical singleton-sequence encoding.
    pub(crate) fn singleton(&mut self, q: OpId, value_col: Col) -> OpId {
        let projected = self.dag.add(Op::Project {
            input: q,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, value_col)],
        });
        let with_pos = self.dag.add(Op::Attach {
            input: projected,
            col: Col::POS,
            value: AValue::Int(1),
        });
        self.canonical(with_pos)
    }

    /// Complete a per-iteration table `[iter, value_col]` with a default
    /// value for live iterations that have no row (e.g. `fn:count` must
    /// yield `0` on empty input).
    pub(crate) fn complete_with_default(
        &mut self,
        q: OpId,
        value_col: Col,
        default: AValue,
    ) -> OpId {
        let present = self.dag.add(Op::Project {
            input: q,
            cols: vec![(Col::ITER1, Col::ITER)],
        });
        let lp = self.cur_loop();
        let missing = self.dag.add(Op::Difference {
            l: lp,
            r: present,
            on: vec![(Col::ITER, Col::ITER1)],
        });
        let defaults = self.dag.add(Op::Attach {
            input: missing,
            col: value_col,
            value: default,
        });
        let q_ordered = self.dag.add(Op::Project {
            input: q,
            cols: vec![(Col::ITER, Col::ITER), (value_col, value_col)],
        });
        self.dag.add(Op::Union {
            l: q_ordered,
            r: defaults,
        })
    }

    /// Per-iteration string value of a sequence: atomize items, join with
    /// spaces in `pos` order, default to `""` for empty iterations.
    /// (Attribute value templates, `fn:string`, text constructors.)
    pub(crate) fn string_join(&mut self, q: OpId) -> OpId {
        let atomized = self.dag.add(Op::Fun {
            input: q,
            new: Col::RES,
            kind: exrquy_algebra::FunKind::Atomize,
            args: vec![Col::ITEM],
        });
        let joined = self.dag.add(Op::Aggr {
            input: atomized,
            kind: AggrKind::StrJoin,
            new: Col::ITEM1,
            arg: Some(Col::RES),
            part: Some(Col::ITER),
        });
        self.complete_with_default(joined, Col::ITEM1, AValue::Str(std::sync::Arc::from("")))
    }

    /// Compile the root (`/`): the document node reached from the current
    /// context item via `ancestor-or-self::document-node()`.
    pub(crate) fn compile_root(&mut self) -> CResult {
        let entry = self
            .env
            .get(".")
            .and_then(|s| s.last())
            .cloned()
            .ok_or_else(|| {
                CompileError::new(
                    exrquy_diag::ErrorCode::XPDY0002,
                    "`/` used without a context document",
                )
            })?;
        let lifted = self.lift(entry.q, entry.depth, self.depth);
        let ctx = self.restrict_to_loop(lifted);
        let ii = self.project_iter_item(ctx);
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
}
