//! XQuery frontend: parser, AST, and the normalization `J·K` of the
//! paper's §2.2.
//!
//! The supported dialect is the fragment the paper and the XMark benchmark
//! exercise: FLWOR expressions (`for`/`at`/`let`/`where`/`order by`/
//! `return`), full axis steps with predicates, direct element/attribute
//! constructors with enclosed expressions, quantifiers, conditionals,
//! arithmetic, the three comparison families, node-set operations
//! (`|`/`union`, `intersect`, `except`), `unordered { }` / `ordered { }`,
//! the `declare ordering` prolog declaration, and ~30 built-in functions
//! including `fn:unordered()`.
//!
//! [`normalize()`](normalize::normalize) implements the *order-indifference-aware* normalization
//! rules of the paper's Figure 4 discussion: aggregate arguments,
//! quantifier domains and general-comparison operands are wrapped in
//! `fn:unordered(·)` (rules FN:COUNT and QUANT apply in *either* ordering
//! mode), and FLWOR blocks that are re-sorted by an `order by` clause are
//! flagged as iteration-order-indifferent. The mode-dependent rules
//! (FOR/STEP/UNION of Figure 4) are *not* expanded at the language level —
//! §2.2 shows that this cannot fully capture their semantics — but are
//! instead realized algebraically by the compiler's LOC#/BIND# rules.

pub mod ast;
pub mod normalize;
pub mod parse;
pub mod pretty;

pub use ast::{
    AttrPart, BinOp, Clause, DirAttr, ElemContent, Expr, Module, NodeTestAst, OrderSpec,
    OrderingMode, Quant, UnOp,
};
pub use normalize::{check_depth, normalize, normalize_opts};
pub use parse::{parse_module, parse_module_with, parse_query, XqError, DEFAULT_MAX_DEPTH};
pub use pretty::{pretty, pretty_module};
