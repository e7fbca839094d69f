//! Plan operators (the paper's Table 1, plus the node-construction and
//! auxiliary operators any complete Pathfinder plan needs).
//!
//! Naming follows the paper where it has a symbol:
//!
//! | paper              | here                 |
//! |--------------------|----------------------|
//! | `π a,b:c`          | [`Op::Project`]      |
//! | `σ a`              | [`Op::Select`]       |
//! | `% a:⟨b⟩‖c`        | [`Op::RowNum`]       |
//! | `# a`              | [`Op::RowId`]        |
//! | `⋈ a=b`            | [`Op::EquiJoin`]     |
//! | `×`                | [`Op::Cross`]        |
//! | `◦ a:(b,c)`        | [`Op::Fun`]          |
//! | `∪̇`                | [`Op::Union`]        |
//! | `count a‖b`        | [`Op::Aggr`]         |
//! | `⬡ ax::nt`         | [`Op::Step`]         |
//! | literal table      | [`Op::Lit`]          |
//! | `doc`              | [`Op::Doc`]          |
//!
//! Additional members (all present in the full Pathfinder algebra, cf.
//! \[10, 11\]): `Attach` (× with a single-row literal — the `pos|1` tables
//! in the paper's figures), `Distinct` (δ), `Difference` (\\, used for
//! empty-group completion and else-branch loops), `ThetaJoin` (the product
//! of the join recognition of \[9\]), and the node constructors
//! `Element`/`Attr`/`TextNode` (the paper's "elem cons." order
//! interaction 2© runs through these).

use crate::col::Col;
use crate::dag::OpId;
use crate::value::AValue;
use exrquy_xml::{Axis, NodeTest};
use std::sync::Arc;

/// Sort criterion of a [`Op::RowNum`] (or an `order by`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortKey {
    pub col: Col,
    pub desc: bool,
}

impl SortKey {
    /// Ascending sort on `col`.
    pub fn asc(col: Col) -> Self {
        SortKey { col, desc: false }
    }
}

/// Row-level functions computed by [`Op::Fun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunKind {
    // arithmetic (numeric promotion; untyped operands are cast to double)
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
    UnaryMinus,
    // comparisons (XQuery value-comparison rules on dynamic types)
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // boolean connectives
    And,
    Or,
    Not,
    // strings & conversions
    Concat,
    Contains,
    StartsWith,
    StringLength,
    Substring2,
    Substring3,
    UpperCase,
    LowerCase,
    Translate,
    /// `fn:normalize-space`.
    NormalizeSpace,
    /// `fn:substring-before`.
    SubstringBefore,
    /// `fn:substring-after`.
    SubstringAfter,
    /// `fn:string-join` with an explicit separator (2nd arg).
    StringJoinSep,
    /// `fn:ends-with`.
    EndsWith,
    /// `fn:abs`.
    Abs,
    /// String value / atomization of an item (node → string value,
    /// atomic → itself).
    Atomize,
    /// Cast to double (`fn:number`-ish; non-numeric → NaN).
    ToNum,
    /// Cast to string.
    ToStr,
    /// Node name (`fn:local-name` / `fn:name`).
    NameOf,
    /// `fn:true()`-style identity on booleans — effective boolean value of
    /// a *single* item.
    ItemEbv,
    /// Document-order comparison `<<`.
    NodeBefore,
    /// Document-order comparison `>>`.
    NodeAfter,
    /// Node identity `is`.
    NodeIs,
    /// `fn:round`.
    Round,
    /// `fn:floor`.
    Floor,
    /// `fn:ceiling`.
    Ceiling,
}

impl FunKind {
    /// Is this one of the six value comparisons?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            FunKind::Eq | FunKind::Ne | FunKind::Lt | FunKind::Le | FunKind::Gt | FunKind::Ge
        )
    }

    /// Mirror a comparison (for swapping theta-join sides): `a < b` ⇔
    /// `b > a`.
    pub fn mirror(self) -> Self {
        match self {
            FunKind::Lt => FunKind::Gt,
            FunKind::Le => FunKind::Ge,
            FunKind::Gt => FunKind::Lt,
            FunKind::Ge => FunKind::Le,
            other => other,
        }
    }
}

/// The skeleton of an [`Op::Element`]: the tree of elements one
/// constructor writes per iteration, with the places content is spliced
/// in. A syntactic tree of nested direct constructors compiles to one
/// twig (Pathfinder's twig constructor); a lone `<e>{…}</e>` is the
/// one-node twig.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Twig {
    pub name: Arc<str>,
    /// Children in document order.
    pub parts: Vec<TwigPart>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TwigPart {
    /// A nested element, written in place (never built and copied).
    Elem(Twig),
    /// Content slot `n`: the rows of the operator's `content` input
    /// whose `ord` is `n`. Slots are numbered 1, 2, … in DFS order.
    Slot(u32),
}

impl Twig {
    /// The one-node twig `<name>{slot 1}…{slot n}</name>`.
    pub fn leaf(name: &str, slots: u32) -> Twig {
        Twig {
            name: Arc::from(name),
            parts: (1..=slots).map(TwigPart::Slot).collect(),
        }
    }

    /// Elements in the skeleton, the root included.
    pub fn elements(&self) -> usize {
        let nested = self.parts.iter().map(|p| match p {
            TwigPart::Elem(t) => t.elements(),
            TwigPart::Slot(_) => 0,
        });
        1 + nested.sum::<usize>()
    }

    /// `personne·15` — root name and, for a proper tree, its element
    /// count (plan renderings).
    pub fn label(&self) -> String {
        match self.elements() {
            1 => self.name.to_string(),
            n => format!("{}·{n}", self.name),
        }
    }
}

/// `personne(statistiques(sexe($1),age($2)),$3)` — the skeleton as one
/// line, slots as `$n` (what a test compares a compiled twig against).
impl std::fmt::Display for Twig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match p {
                TwigPart::Elem(t) => write!(f, "{t}")?,
                TwigPart::Slot(n) => write!(f, "${n}")?,
            }
        }
        f.write_str(")")
    }
}

/// Grouped aggregation kinds of [`Op::Aggr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggrKind {
    /// `count` — the one aggregate shown in Table 1; needs no argument.
    Count,
    Sum,
    Max,
    Min,
    Avg,
    /// Effective boolean value of the group's item sequence (nodes → true,
    /// single boolean/numeric/string → its EBV; used for `fn:boolean`,
    /// `where`, `if`).
    Ebv,
    /// `true` iff any item in the group is `true` (quantifier `some`).
    Any,
    /// `true` iff all items in the group are `true` (quantifier `every`).
    All,
    /// Space-separated concatenation of the group's string values in `pos`
    /// order (attribute value templates, `fn:string` on sequences). The
    /// group's internal order is taken from the paper's `pos` column when
    /// present in the input; the engine sorts by it.
    StrJoin,
}

/// A plan operator. Children are [`OpId`]s into the owning
/// [`Dag`](crate::dag::Dag).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Literal table (includes the paper's `pos|1`-style constants and the
    /// unit `loop` relation).
    Lit {
        cols: Vec<Col>,
        rows: Vec<Vec<AValue>>,
    },
    /// Access to an encoded XML document: one row, `item` = document root
    /// node of `url`.
    Doc { url: Arc<str> },
    /// Projection with rename; does *not* remove duplicates (§3). `cols`
    /// pairs are `(output name, input name)`.
    Project { input: OpId, cols: Vec<(Col, Col)> },
    /// Keep rows whose (boolean) column `col` is true.
    Select { input: OpId, col: Col },
    /// `% new:⟨order⟩‖part` — dense rank (1,2,…) per group in sort order.
    /// The blocking, order-materializing primitive.
    RowNum {
        input: OpId,
        new: Col,
        order: Vec<SortKey>,
        part: Option<Col>,
    },
    /// `# new` — arbitrary unique numbers; "negligible cost or even free".
    RowId { input: OpId, new: Col },
    /// Attach a constant column (the `× pos|1` idiom in the paper's plans).
    Attach {
        input: OpId,
        col: Col,
        value: AValue,
    },
    /// Row-level function `new := kind(args…)`.
    Fun {
        input: OpId,
        new: Col,
        kind: FunKind,
        args: Vec<Col>,
    },
    /// Grouped aggregation (`count item‖iter` and friends). Groups with no
    /// rows produce no output row — the compiler completes empty groups
    /// explicitly (fn:count() on () must yield 0).
    Aggr {
        input: OpId,
        kind: AggrKind,
        new: Col,
        /// Aggregated column (None only for Count).
        arg: Option<Col>,
        part: Option<Col>,
    },
    /// δ — duplicate row elimination.
    Distinct { input: OpId },
    /// `⬡ ax::nt` — XPath location step: consumes `iter|item` context
    /// (items must be nodes), emits duplicate-free `iter|item` result
    /// nodes, in an order chosen by the step algorithm (§3).
    Step {
        input: OpId,
        axis: Axis,
        test: NodeTest,
    },
    /// Cartesian product (schemas must be disjoint).
    Cross { l: OpId, r: OpId },
    /// Equi-join `l.lcol = r.rcol`.
    EquiJoin {
        l: OpId,
        r: OpId,
        lcol: Col,
        rcol: Col,
    },
    /// Theta-join on a conjunction of value predicates `l.col ◦ r.col` —
    /// the operator produced by join recognition \[9\].
    ThetaJoin {
        l: OpId,
        r: OpId,
        pred: Vec<(Col, FunKind, Col)>,
    },
    /// `∪̇` — disjoint union (append). Column *sets* must coincide; the
    /// engine aligns by name. This is "the algebraic equivalent of item
    /// sequence concatenation `,`" (§4.2).
    Union { l: OpId, r: OpId },
    /// `\` — rows of `l` whose key (the tuple of `on.0` columns) does not
    /// occur among `r`'s `on.1` tuples (anti-semijoin; used for
    /// empty-group completion, else-branch loop derivation, and `except`).
    Difference {
        l: OpId,
        r: OpId,
        on: Vec<(Col, Col)>,
    },
    /// Element construction: one new tree shaped like `twig` per row of
    /// `iters` (the loop relation, `iter`; every name is read off the
    /// twig); `content` (`iter|pos|item|ord`) provides each slot's
    /// content sequence per iteration — order interaction 2© (seq → doc)
    /// happens here. Emits `iter|item` (the new root nodes).
    Element {
        iters: OpId,
        content: OpId,
        twig: Arc<Twig>,
    },
    /// Attribute construction (per-iteration name and string value).
    Attr { names: OpId, values: OpId },
    /// Text node construction from `iter|item` string values.
    TextNode { content: OpId },
    /// Integer range expansion (`lo to hi`): for each input row, emit one
    /// row per integer in `[lo, hi]` (none when `lo > hi`), as new column
    /// `new`. Input columns are replicated.
    Range {
        input: OpId,
        lo: Col,
        hi: Col,
        new: Col,
    },
    /// Serialization root: marks the result that must be emitted in `pos`
    /// order with `item` values. Identity on its input; the seed of the
    /// column dependency analysis (required columns {pos, item}, §4.1).
    Serialize { input: OpId },
    /// The catalog's document collection (`fn:collection()`): one row
    /// per document fragment of the catalog the plan runs against, with
    /// `pos` = the document's 1-based rank in the collection (its
    /// fragment index + 1) and `item` = its root node.
    Collection,
}

impl Op {
    /// Children of this operator, in a fixed order.
    pub fn children(&self) -> Vec<OpId> {
        match self {
            Op::Lit { .. } | Op::Doc { .. } | Op::Collection => vec![],
            Op::Project { input, .. }
            | Op::Select { input, .. }
            | Op::RowNum { input, .. }
            | Op::RowId { input, .. }
            | Op::Attach { input, .. }
            | Op::Fun { input, .. }
            | Op::Aggr { input, .. }
            | Op::Distinct { input }
            | Op::Step { input, .. }
            | Op::TextNode { content: input }
            | Op::Range { input, .. }
            | Op::Serialize { input } => vec![*input],
            Op::Cross { l, r }
            | Op::EquiJoin { l, r, .. }
            | Op::ThetaJoin { l, r, .. }
            | Op::Union { l, r }
            | Op::Difference { l, r, .. }
            | Op::Element {
                iters: l,
                content: r,
                ..
            }
            | Op::Attr {
                names: l,
                values: r,
            } => vec![*l, *r],
        }
    }

    /// Rebuild this operator with children replaced (same arity/order as
    /// [`children`](Self::children)). Used by the optimizer's rewriting
    /// passes.
    pub fn with_children(&self, ch: &[OpId]) -> Op {
        let mut op = self.clone();
        match &mut op {
            Op::Lit { .. } | Op::Doc { .. } | Op::Collection => {}
            Op::Project { input, .. }
            | Op::Select { input, .. }
            | Op::RowNum { input, .. }
            | Op::RowId { input, .. }
            | Op::Attach { input, .. }
            | Op::Fun { input, .. }
            | Op::Aggr { input, .. }
            | Op::Distinct { input }
            | Op::Step { input, .. }
            | Op::TextNode { content: input }
            | Op::Range { input, .. }
            | Op::Serialize { input } => *input = ch[0],
            Op::Cross { l, r }
            | Op::EquiJoin { l, r, .. }
            | Op::ThetaJoin { l, r, .. }
            | Op::Union { l, r }
            | Op::Difference { l, r, .. }
            | Op::Element {
                iters: l,
                content: r,
                ..
            }
            | Op::Attr {
                names: l,
                values: r,
            } => {
                *l = ch[0];
                *r = ch[1];
            }
        }
        op
    }

    /// Every kind name [`Op::kind_name`] can return, in declaration
    /// order. Coverage tooling checks itself against this list.
    pub const KIND_NAMES: &'static [&'static str] = &[
        "lit",
        "doc",
        "π",
        "σ",
        "%",
        "#",
        "attach",
        "fun",
        "aggr",
        "δ",
        "⬡",
        "×",
        "⋈",
        "⋈θ",
        "∪̇",
        "\\",
        "elem",
        "attr",
        "text",
        "range",
        "serialize",
        "collection",
    ];

    /// Short operator-kind name for statistics and rendering.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Lit { .. } => "lit",
            Op::Doc { .. } => "doc",
            Op::Project { .. } => "π",
            Op::Select { .. } => "σ",
            Op::RowNum { .. } => "%",
            Op::RowId { .. } => "#",
            Op::Attach { .. } => "attach",
            Op::Fun { .. } => "fun",
            Op::Aggr { .. } => "aggr",
            Op::Distinct { .. } => "δ",
            Op::Step { .. } => "⬡",
            Op::Cross { .. } => "×",
            Op::EquiJoin { .. } => "⋈",
            Op::ThetaJoin { .. } => "⋈θ",
            Op::Union { .. } => "∪̇",
            Op::Difference { .. } => "\\",
            Op::Element { .. } => "elem",
            Op::Attr { .. } => "attr",
            Op::TextNode { .. } => "text",
            Op::Range { .. } => "range",
            Op::Serialize { .. } => "serialize",
            Op::Collection => "collection",
        }
    }
}
