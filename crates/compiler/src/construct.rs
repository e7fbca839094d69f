//! Node constructors: direct and computed element/attribute/text
//! construction.
//!
//! Constructors realize order interaction 2© (sequence order establishes
//! document order in the new fragment — the paper's Expression (3)): the
//! content sequence encoding, `pos` included, feeds the `elem` operator,
//! which writes the new fragment in that order. A tree of nested direct
//! constructors is one `elem` carrying the tree as a [`Twig`], its
//! content the union of the tree's slots (Pathfinder's twig constructor).

use crate::{CResult, CompileError, Compiler};
use exrquy_algebra::{AValue, Col, FunKind, Op, OpId, Twig, TwigPart};
use exrquy_frontend::{AttrPart, DirAttr, ElemContent, Expr};
use std::sync::Arc;

impl Compiler {
    pub(crate) fn compile_constructor(&mut self, e: &Expr) -> CResult {
        match e {
            Expr::DirElement {
                name,
                attrs,
                content,
            } => {
                let mut slots = Vec::new();
                let twig = self.compile_twig(name, attrs, content, &mut slots)?;
                self.emit_element(twig, &slots)
            }
            Expr::ElemConstructor { name, content } => {
                let q = self.compile(content)?;
                self.emit_element(Twig::leaf(name, 1), &[q])
            }
            Expr::AttrConstructor { name, value } => {
                let q = self.compile(value)?;
                let joined = self.string_join(q);
                let values = self.dag.add(Op::Project {
                    input: joined,
                    cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM1)],
                });
                let names = self.const_name_table(name);
                let attr = self.dag.add(Op::Attr { names, values });
                let with_pos = self.dag.add(Op::Attach {
                    input: attr,
                    col: Col::POS,
                    value: AValue::Int(1),
                });
                Ok(self.canonical(with_pos))
            }
            Expr::TextConstructor(value) => {
                let q = self.compile(value)?;
                let joined = self.string_join(q);
                let content = self.dag.add(Op::Project {
                    input: joined,
                    cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM1)],
                });
                let text = self.dag.add(Op::TextNode { content });
                let with_pos = self.dag.add(Op::Attach {
                    input: text,
                    col: Col::POS,
                    value: AValue::Int(1),
                });
                Ok(self.canonical(with_pos))
            }
            other => Err(CompileError::new(
                exrquy_diag::ErrorCode::XPST0003,
                format!("compile_constructor on {other:?}"),
            )),
        }
    }

    /// The skeleton of a tree of direct constructors. Every attribute,
    /// literal text and enclosed expression of the whole tree is compiled
    /// into `slots` in DFS order; a constructor nested *directly* — same
    /// iteration scope, exactly one element per iteration — becomes a
    /// skeleton node instead of an ε of its own. One nested anywhere
    /// else (inside a sequence, a FLWOR, a scope) is ordinary slot
    /// content and compiles to its own twig.
    fn compile_twig(
        &mut self,
        name: &str,
        attrs: &[DirAttr],
        content: &[ElemContent],
        slots: &mut Vec<OpId>,
    ) -> Result<Twig, CompileError> {
        let mut parts = Vec::with_capacity(attrs.len() + content.len());
        let slot = |slots: &mut Vec<OpId>, q: OpId| {
            slots.push(q);
            TwigPart::Slot(slots.len() as u32)
        };
        for a in attrs {
            parts.push(slot(slots, self.compile_dir_attr(a)?));
        }
        for c in content {
            parts.push(match c {
                ElemContent::Text(t) => {
                    slot(slots, self.const_item(AValue::Str(Arc::from(t.as_str()))))
                }
                ElemContent::Expr(Expr::DirElement {
                    name,
                    attrs,
                    content,
                }) => TwigPart::Elem(self.compile_twig(name, attrs, content, slots)?),
                ElemContent::Expr(e) => slot(slots, self.compile(e)?),
            });
        }
        Ok(Twig {
            name: Arc::from(name),
            parts,
        })
    }

    /// `loop × item|name` — the per-iteration attribute name table.
    fn const_name_table(&mut self, name: &str) -> OpId {
        let lp = self.cur_loop();
        self.dag.add(Op::Attach {
            input: lp,
            col: Col::ITEM,
            value: AValue::Str(Arc::from(name)),
        })
    }

    /// `slots[n − 1]` is the content of the twig's slot `n`. Their union
    /// keeps the slot number as `ord` and each slot's own `pos`: `ord`
    /// says where in the twig a row goes, and the kernel reads an
    /// iteration's rows in `(ord, pos)` order, so no `%` renumbers them.
    fn emit_element(&mut self, twig: Twig, slots: &[OpId]) -> CResult {
        let content = match slots {
            [] => self.dag.add(Op::Lit {
                cols: vec![Col::ITER, Col::POS, Col::ITEM, Col::ORD],
                rows: vec![],
            }),
            _ => self.tagged_union(slots),
        };
        let elem = self.dag.add(Op::Element {
            iters: self.cur_loop(),
            content,
            twig: Arc::new(twig),
        });
        let with_pos = self.dag.add(Op::Attach {
            input: elem,
            col: Col::POS,
            value: AValue::Int(1),
        });
        Ok(self.canonical(with_pos))
    }

    /// A direct attribute with a value template: literal runs and enclosed
    /// expressions concatenate into one string per iteration.
    fn compile_dir_attr(&mut self, attr: &DirAttr) -> CResult {
        let mut part_tables: Vec<OpId> = Vec::new();
        for p in &attr.value {
            let t = match p {
                AttrPart::Lit(s) => {
                    let lp = self.cur_loop();
                    self.dag.add(Op::Attach {
                        input: lp,
                        col: Col::ITEM1,
                        value: AValue::Str(Arc::from(s.as_str())),
                    })
                }
                AttrPart::Expr(e) => {
                    let q = self.compile(e)?;
                    self.string_join(q)
                }
            };
            part_tables.push(t);
        }
        // Concatenate the parts per iteration.
        let value = match part_tables.len() {
            0 => {
                let lp = self.cur_loop();
                self.dag.add(Op::Attach {
                    input: lp,
                    col: Col::ITEM1,
                    value: AValue::Str(Arc::from("")),
                })
            }
            1 => part_tables[0],
            _ => {
                let mut acc = part_tables[0];
                for &next in &part_tables[1..] {
                    let renamed = self.dag.add(Op::Project {
                        input: next,
                        cols: vec![(Col::ITER1, Col::ITER), (Col::ITEM2, Col::ITEM1)],
                    });
                    let joined = self.dag.add(Op::EquiJoin {
                        l: acc,
                        r: renamed,
                        lcol: Col::ITER,
                        rcol: Col::ITER1,
                    });
                    let cat = self.dag.add(Op::Fun {
                        input: joined,
                        new: Col::RES,
                        kind: FunKind::Concat,
                        args: vec![Col::ITEM1, Col::ITEM2],
                    });
                    acc = self.dag.add(Op::Project {
                        input: cat,
                        cols: vec![(Col::ITER, Col::ITER), (Col::ITEM1, Col::RES)],
                    });
                }
                acc
            }
        };
        let values = self.dag.add(Op::Project {
            input: value,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM1)],
        });
        let names = self.const_name_table(&attr.name);
        let a = self.dag.add(Op::Attr { names, values });
        let with_pos = self.dag.add(Op::Attach {
            input: a,
            col: Col::POS,
            value: AValue::Int(1),
        });
        Ok(self.canonical(with_pos))
    }
}
