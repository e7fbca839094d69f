//! Abstract syntax of the supported XQuery dialect.
//!
//! The AST doubles as the "XQuery Core" representation after
//! [`normalize`](crate::normalize::normalize): normalization only inserts
//! [`Expr::Unordered`] wrappers and sets flags, it does not change the
//! shape of the tree (see the module docs of this crate for why the
//! paper's Figure 4 push-down rules are *not* executed at this level).

use exrquy_xml::Axis;

/// Global ordering mode (query prolog `declare ordering`), also set
/// locally by `ordered { }` / `unordered { }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderingMode {
    /// The "perceived default" (§2).
    #[default]
    Ordered,
    Unordered,
}

/// A parsed query: prolog declarations plus body expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// `declare ordering ordered|unordered;`
    pub ordering: OrderingMode,
    /// Top-level `declare variable $x := e;` bindings, in order.
    pub variables: Vec<(String, Expr)>,
    pub body: Expr,
}

/// Binary operators. Grouped by family; the compiler treats each family
/// differently (general comparisons are existential and order-indifferent,
/// node-set operations establish document order, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    // arithmetic
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
    // general comparisons (existential; normalize wraps operands unordered)
    GenEq,
    GenNe,
    GenLt,
    GenLe,
    GenGt,
    GenGe,
    // value comparisons
    ValEq,
    ValNe,
    ValLt,
    ValLe,
    ValGt,
    ValGe,
    // node comparisons
    Is,
    Before, // <<
    After,  // >>
    // logic
    And,
    Or,
    // node-set operations (doc-order establishing, duplicate-eliminating)
    Union,
    Intersect,
    Except,
    // integer range
    To,
}

impl BinOp {
    /// Whether this is one of the six general comparisons.
    pub fn is_general_comparison(self) -> bool {
        matches!(
            self,
            BinOp::GenEq | BinOp::GenNe | BinOp::GenLt | BinOp::GenLe | BinOp::GenGt | BinOp::GenGe
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Minus,
    Plus,
}

/// Quantifier kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    Some,
    Every,
}

/// FLWOR clauses preceding `return`.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    For {
        var: String,
        /// Positional variable (`at $p`).
        pos_var: Option<String>,
        seq: Expr,
    },
    Let {
        var: String,
        expr: Expr,
    },
    Where(Expr),
}

/// One `order by` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    pub key: Expr,
    pub descending: bool,
}

/// Node tests in surface syntax (names are resolved against the document's
/// name pool at compile time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTestAst {
    AnyKind,
    Wildcard,
    Name(String),
    Text,
    Comment,
    Pi(Option<String>),
    Element,
    DocumentNode,
}

/// Attribute value template part: literal text or enclosed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrPart {
    Lit(String),
    Expr(Expr),
}

/// A direct attribute `name="…{e}…"`.
#[derive(Debug, Clone, PartialEq)]
pub struct DirAttr {
    pub name: String,
    pub value: Vec<AttrPart>,
}

/// Direct element content.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemContent {
    /// Literal character data.
    Text(String),
    /// Enclosed expression `{ e }`.
    Expr(Expr),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit(i64),
    DblLit(f64),
    StrLit(String),
    /// `()`
    Empty,
    /// `e1, e2, …` (n ≥ 2)
    Sequence(Vec<Expr>),
    Var(String),
    /// `.`
    ContextItem,
    /// Leading `/` — the root (document node) of the context item's tree.
    Root,
    /// One location step applied to `input`: `input/axis::test[preds…]`.
    PathStep {
        input: Box<Expr>,
        axis: Axis,
        test: NodeTestAst,
        predicates: Vec<Expr>,
    },
    /// Predicate on a non-step expression: `e[p]`.
    Filter {
        input: Box<Expr>,
        predicate: Box<Expr>,
    },
    /// General step expression: `input/step` where `step` is not a plain
    /// axis step (e.g. `$t//(c|d)` — the paper's Expression (1)). `step`
    /// is evaluated once per node of `input` with the context item bound;
    /// node results are combined in document order, duplicate-free.
    PathSeq {
        input: Box<Expr>,
        step: Box<Expr>,
    },
    Flwor {
        clauses: Vec<Clause>,
        order_by: Vec<OrderSpec>,
        /// Set by normalization when `order_by` is non-empty: the tuple
        /// stream feeding the sort may be generated in arbitrary order
        /// (order-indifference context (f) of §1).
        reordered: bool,
        ret: Box<Expr>,
    },
    Quantified {
        quant: Quant,
        var: String,
        domain: Box<Expr>,
        satisfies: Box<Expr>,
    },
    If {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    Binary {
        op: BinOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    /// Function call (built-ins only; the `fn:` prefix is stripped).
    Call {
        name: String,
        args: Vec<Expr>,
    },
    /// `fn:unordered(e)` after normalization, and `unordered { e }` scopes
    /// reduced to expression position. Sequence order of the value is
    /// arbitrary (the paper's Rule FN:UNORDERED applies).
    Unordered(Box<Expr>),
    /// `unordered { e }` / `ordered { e }` — sets the ordering mode for
    /// the subtree (compiler switches LOC/BIND ⇄ LOC#/BIND#).
    OrderingScope {
        mode: OrderingMode,
        expr: Box<Expr>,
    },
    /// Direct element constructor.
    DirElement {
        name: String,
        attrs: Vec<DirAttr>,
        content: Vec<ElemContent>,
    },
    /// Computed text constructor `text { e }`.
    TextConstructor(Box<Expr>),
    /// Computed attribute constructor `attribute name { e }`.
    AttrConstructor {
        name: String,
        value: Box<Expr>,
    },
    /// Computed element constructor `element name { e }`.
    ElemConstructor {
        name: String,
        content: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for boxed binaries.
    pub fn binary(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    /// Call `fn:unordered` on `e` (used by normalization).
    pub fn unordered(e: Expr) -> Expr {
        Expr::Unordered(Box::new(e))
    }

    /// Free variables of the expression (used by the compiler's
    /// loop-lifting depth analysis and by join recognition).
    pub fn free_vars(&self) -> Vec<String> {
        let mut acc = Vec::new();
        self.collect_free(&mut Vec::new(), &mut acc);
        acc.sort();
        acc.dedup();
        acc
    }

    fn collect_free(&self, bound: &mut Vec<String>, acc: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !bound.contains(v) {
                    acc.push(v.clone());
                }
            }
            // The context item is treated as the pseudo-variable "." bound
            // by steps, predicates and PathSeq.
            Expr::ContextItem | Expr::Root => {
                if !bound.contains(&".".to_string()) {
                    acc.push(".".into());
                }
            }
            // position()/last() reference the focus like pseudo-variables
            // (" position"/" last", unspellable as user variables); the
            // compiler's predicate scopes bind them.
            Expr::Call { name, args }
                if (name == "position" || name == "last") && args.is_empty() =>
            {
                let pseudo = format!(" {name}");
                if !bound.contains(&pseudo) {
                    acc.push(pseudo);
                }
            }
            Expr::PathStep {
                input, predicates, ..
            } => {
                input.collect_free(bound, acc);
                bound.push(".".into());
                bound.push(" position".into());
                bound.push(" last".into());
                for p in predicates {
                    p.collect_free(bound, acc);
                }
                bound.truncate(bound.len() - 3);
            }
            Expr::Filter { input, predicate } => {
                input.collect_free(bound, acc);
                bound.push(".".into());
                bound.push(" position".into());
                bound.push(" last".into());
                predicate.collect_free(bound, acc);
                bound.truncate(bound.len() - 3);
            }
            Expr::PathSeq { input, step } => {
                input.collect_free(bound, acc);
                bound.push(".".into());
                step.collect_free(bound, acc);
                bound.pop();
            }
            Expr::Flwor {
                clauses,
                order_by,
                ret,
                ..
            } => {
                let mark = bound.len();
                for c in clauses {
                    match c {
                        Clause::For { var, pos_var, seq } => {
                            seq.collect_free(bound, acc);
                            bound.push(var.clone());
                            if let Some(p) = pos_var {
                                bound.push(p.clone());
                            }
                        }
                        Clause::Let { var, expr } => {
                            expr.collect_free(bound, acc);
                            bound.push(var.clone());
                        }
                        Clause::Where(e) => e.collect_free(bound, acc),
                    }
                }
                for o in order_by {
                    o.key.collect_free(bound, acc);
                }
                ret.collect_free(bound, acc);
                bound.truncate(mark);
            }
            Expr::Quantified {
                var,
                domain,
                satisfies,
                ..
            } => {
                domain.collect_free(bound, acc);
                bound.push(var.clone());
                satisfies.collect_free(bound, acc);
                bound.pop();
            }
            other => {
                other.for_each_child(|c| c.collect_free(bound, acc));
            }
        }
    }

    /// Visit direct sub-expressions mutably, in the same order as
    /// [`Expr::for_each_child`]. The order agreement is load-bearing: the
    /// AST shrinker numbers nodes with the immutable walk and edits them
    /// with this one.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::IntLit(_)
            | Expr::DblLit(_)
            | Expr::StrLit(_)
            | Expr::Empty
            | Expr::Var(_)
            | Expr::ContextItem
            | Expr::Root => {}
            Expr::Sequence(es) => es.iter_mut().for_each(&mut f),
            Expr::PathStep {
                input, predicates, ..
            } => {
                f(input);
                predicates.iter_mut().for_each(&mut f);
            }
            Expr::Filter { input, predicate } => {
                f(input);
                f(predicate);
            }
            Expr::PathSeq { input, step } => {
                f(input);
                f(step);
            }
            Expr::Flwor {
                clauses,
                order_by,
                ret,
                ..
            } => {
                for c in clauses {
                    match c {
                        Clause::For { seq, .. } => f(seq),
                        Clause::Let { expr, .. } => f(expr),
                        Clause::Where(e) => f(e),
                    }
                }
                for o in order_by {
                    f(&mut o.key);
                }
                f(ret);
            }
            Expr::Quantified {
                domain, satisfies, ..
            } => {
                f(domain);
                f(satisfies);
            }
            Expr::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            Expr::Binary { l, r, .. } => {
                f(l);
                f(r);
            }
            Expr::Unary { expr, .. } => f(expr),
            Expr::Call { args, .. } => args.iter_mut().for_each(&mut f),
            Expr::Unordered(e) => f(e),
            Expr::OrderingScope { expr, .. } => f(expr),
            Expr::DirElement { attrs, content, .. } => {
                for a in attrs {
                    for p in &mut a.value {
                        if let AttrPart::Expr(e) = p {
                            f(e);
                        }
                    }
                }
                for c in content {
                    if let ElemContent::Expr(e) = c {
                        f(e);
                    }
                }
            }
            Expr::TextConstructor(e) => f(e),
            Expr::AttrConstructor { value, .. } => f(value),
            Expr::ElemConstructor { content, .. } => f(content),
        }
    }

    /// Visit direct sub-expressions (not descending into binding
    /// structure — callers that care about scoping handle Flwor/Quantified
    /// themselves, as `collect_free` does).
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::IntLit(_)
            | Expr::DblLit(_)
            | Expr::StrLit(_)
            | Expr::Empty
            | Expr::Var(_)
            | Expr::ContextItem
            | Expr::Root => {}
            Expr::Sequence(es) => es.iter().for_each(&mut f),
            Expr::PathStep {
                input, predicates, ..
            } => {
                f(input);
                predicates.iter().for_each(&mut f);
            }
            Expr::Filter { input, predicate } => {
                f(input);
                f(predicate);
            }
            Expr::PathSeq { input, step } => {
                f(input);
                f(step);
            }
            Expr::Flwor {
                clauses,
                order_by,
                ret,
                ..
            } => {
                for c in clauses {
                    match c {
                        Clause::For { seq, .. } => f(seq),
                        Clause::Let { expr, .. } => f(expr),
                        Clause::Where(e) => f(e),
                    }
                }
                for o in order_by {
                    f(&o.key);
                }
                f(ret);
            }
            Expr::Quantified {
                domain, satisfies, ..
            } => {
                f(domain);
                f(satisfies);
            }
            Expr::If { cond, then, els } => {
                f(cond);
                f(then);
                f(els);
            }
            Expr::Binary { l, r, .. } => {
                f(l);
                f(r);
            }
            Expr::Unary { expr, .. } => f(expr),
            Expr::Call { args, .. } => args.iter().for_each(&mut f),
            Expr::Unordered(e) => f(e),
            Expr::OrderingScope { expr, .. } => f(expr),
            Expr::DirElement { attrs, content, .. } => {
                for a in attrs {
                    for p in &a.value {
                        if let AttrPart::Expr(e) = p {
                            f(e);
                        }
                    }
                }
                for c in content {
                    if let ElemContent::Expr(e) = c {
                        f(e);
                    }
                }
            }
            Expr::TextConstructor(e) => f(e),
            Expr::AttrConstructor { value, .. } => f(value),
            Expr::ElemConstructor { content, .. } => f(content),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respect_flwor_scoping() {
        // for $x in $src return ($x, $y)
        let e = Expr::Flwor {
            clauses: vec![Clause::For {
                var: "x".into(),
                pos_var: None,
                seq: Expr::Var("src".into()),
            }],
            order_by: vec![],
            reordered: false,
            ret: Box::new(Expr::Sequence(vec![
                Expr::Var("x".into()),
                Expr::Var("y".into()),
            ])),
        };
        assert_eq!(e.free_vars(), vec!["src".to_string(), "y".to_string()]);
    }

    #[test]
    fn free_vars_respect_quantifier_scoping() {
        let e = Expr::Quantified {
            quant: Quant::Some,
            var: "x".into(),
            domain: Box::new(Expr::Var("d".into())),
            satisfies: Box::new(Expr::binary(
                BinOp::GenEq,
                Expr::Var("x".into()),
                Expr::Var("z".into()),
            )),
        };
        assert_eq!(e.free_vars(), vec!["d".to_string(), "z".to_string()]);
    }

    #[test]
    fn positional_var_is_bound() {
        let e = Expr::Flwor {
            clauses: vec![Clause::For {
                var: "x".into(),
                pos_var: Some("p".into()),
                seq: Expr::Empty,
            }],
            order_by: vec![],
            reordered: false,
            ret: Box::new(Expr::Var("p".into())),
        };
        assert!(e.free_vars().is_empty());
    }
}
