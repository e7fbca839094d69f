//! The loop-lifting XQuery-to-algebra compiler (`· ⇒ ·` of §3).
//!
//! Every expression compiles, relative to a *loop relation* (the table of
//! live iterations), to a plan producing an `iter|pos|item` table: "in
//! iteration `iter`, the expression's value contains item `item` at the
//! sequence position corresponding to `pos`'s rank" (§3).
//!
//! The ordering-mode-sensitive rules are exactly the paper's:
//!
//! * **LOC** (ordered): a location step wraps `⬡` in
//!   `% pos:⟨item⟩‖iter` — document order determines sequence order
//!   (interaction 1©).
//! * **LOC#** (unordered): the `%` becomes a free `# pos` (Figure 7).
//! * **BIND** (ordered): `for`-variable bindings are numbered by
//!   `% bind:⟨iter,pos⟩` — sequence order determines iteration order
//!   (interaction 3©).
//! * **BIND#** (unordered, or any FLWOR re-sorted by `order by`): `# bind`.
//! * **FN:UNORDERED**: `fn:unordered(e)` compiles to
//!   `# pos (π iter,item (q_e))`, overwriting sequence order.
//!
//! Iteration order → sequence order (interaction 4©) is *never* weakened
//! by the compiler — the `%pos1:⟨bind,pos⟩‖iter` at the end of every
//! `for`-block return remains in both modes (Figure 6b keeps one `%`) and
//! is only removed by the column dependency analysis when some enclosing
//! context is order-indifferent.
//!
//! The compiler also performs the *join recognition* of \[9\] ("Purely
//! Relational FLWORs", cited as the mechanism behind Q11's profile in §5):
//! a `for $x in e1 where e_a ◦ e_b return …` block whose comparison splits
//! into an `$x`-dependent side and an `$x`-free side compiles to a
//! [`ThetaJoin`](exrquy_algebra::Op::ThetaJoin) instead of a materialized
//! iteration-space cross product. This is orthogonal to order indifference
//! and active in both ordering modes, exactly as in Pathfinder.

mod construct;
mod flwor;
mod funcs;
mod helpers;
mod paths;
mod truth;

use exrquy_algebra::{AValue, Col, Dag, Op, OpId, PhysPlan};
use exrquy_diag::ErrorCode;
use exrquy_frontend::{Expr, Module, OrderingMode};
use exrquy_xml::{Catalog, NameId, NamePool};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Compilation error (unbound variables, unsupported constructs),
/// tagged with a W3C-style static error code.
#[derive(Debug, Clone)]
pub struct CompileError {
    /// Machine-readable error code (an `XPST*`/`XPDY*` static code).
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl CompileError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        CompileError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

pub(crate) type CResult = Result<OpId, CompileError>;

/// A finished plan.
#[derive(Debug)]
pub struct CompiledPlan {
    pub dag: Dag,
    /// Root operator ([`Op::Serialize`]); its `pos|item` columns carry the
    /// query result.
    pub root: OpId,
    /// Name snapshot the plan's node tests were interned against: the
    /// catalog's frozen pool, extended (copy-on-write) with any names the
    /// query mentions that no document contains. Shared, not cloned, into
    /// the prepared plan and every execution overlay.
    pub names: Arc<NamePool>,
}

impl CompiledPlan {
    /// Lower into the flattened physical program the vectorized engine
    /// executes ([`exrquy_algebra::lower`]): slots in topological order
    /// with integer operands and, with `fuse` set, single-consumer
    /// `fun`/`σ`/`attach`/`π` runs collapsed into fused chains. Callers
    /// that cache plans lower once here and execute the program many
    /// times.
    pub fn lower(&self, fuse: bool) -> PhysPlan {
        exrquy_algebra::lower(&self.dag, self.root, fuse)
    }
}

/// One loop-lifting stack frame.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// Live iterations of this nesting level: a table `[iter]`.
    pub loop_op: OpId,
    /// Mapping `outer|inner` from the parent frame's iterations to this
    /// frame's (absent at depth 0).
    pub map_op: Option<OpId>,
}

/// Variable binding: the relational encoding `iter|pos|item` at the
/// nesting depth where the variable was bound.
#[derive(Debug, Clone)]
pub(crate) struct VarEntry {
    pub depth: usize,
    pub q: OpId,
}

/// The compiler state. Compilation reads only the shared catalog's name
/// pool; the names a query mentions are interned into a private
/// copy-on-write snapshot ([`CompiledPlan::names`]), so any number of
/// compilations may run concurrently over one `Arc<Catalog>`.
pub struct Compiler {
    pub(crate) dag: Dag,
    /// Name snapshot: starts as a shared handle to the catalog's frozen
    /// pool; cloned lazily (`Arc::make_mut`) the first time the query
    /// mentions a name absent from every document.
    names: Arc<NamePool>,
    pub(crate) frames: Vec<Frame>,
    /// Current nesting depth (index into `frames`); may be lower than
    /// `frames.len() - 1` while compiling a hoisted sub-expression.
    pub(crate) depth: usize,
    pub(crate) env: HashMap<String, Vec<VarEntry>>,
    pub(crate) mode: Vec<OrderingMode>,
}

impl Compiler {
    /// Create a compiler over a shared catalog; node-test names resolve
    /// against the catalog's pool and accumulate into the plan's own
    /// snapshot.
    pub fn new(catalog: &Catalog) -> Self {
        let mut dag = Dag::new();
        let unit_loop = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        Compiler {
            dag,
            names: catalog.pool_arc(),
            frames: vec![Frame {
                loop_op: unit_loop,
                map_op: None,
            }],
            depth: 0,
            env: HashMap::new(),
            mode: vec![OrderingMode::Ordered],
        }
    }

    /// Intern `name` into the plan's name snapshot. Names already in the
    /// catalog pool resolve without touching the snapshot.
    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.names.lookup(name) {
            return id;
        }
        Arc::make_mut(&mut self.names).intern(name)
    }

    /// Compile a normalized module into a plan.
    pub fn compile_module(mut self, m: &Module) -> Result<CompiledPlan, CompileError> {
        self.mode = vec![m.ordering];
        for (name, expr) in &m.variables {
            let q = self.compile(expr)?;
            self.bind_var(name, 0, q);
        }
        let body = self.compile(&m.body)?;
        let root = self.dag.add(Op::Serialize { input: body });
        Ok(CompiledPlan {
            dag: self.dag,
            root,
            names: self.names,
        })
    }

    // ------------------------------------------------------ mode & env

    pub(crate) fn ordered(&self) -> bool {
        *self.mode.last().unwrap() == OrderingMode::Ordered
    }

    pub(crate) fn bind_var(&mut self, name: &str, depth: usize, q: OpId) {
        self.env
            .entry(name.to_string())
            .or_default()
            .push(VarEntry { depth, q });
    }

    pub(crate) fn unbind_var(&mut self, name: &str) {
        let stack = self.env.get_mut(name).expect("unbind of unknown variable");
        stack.pop();
        if stack.is_empty() {
            self.env.remove(name);
        }
    }

    pub(crate) fn lookup_var(&self, name: &str) -> Result<&VarEntry, CompileError> {
        self.env.get(name).and_then(|s| s.last()).ok_or_else(|| {
            CompileError::new(ErrorCode::XPST0008, format!("unbound variable ${name}"))
        })
    }

    /// Max binding depth among `e`'s free variables — the shallowest frame
    /// at which `e` can be compiled (loop-invariant hoisting).
    pub(crate) fn depth_of(&self, e: &Expr) -> Result<usize, CompileError> {
        let mut d = 0;
        for v in e.free_vars() {
            let entry = if v == "." {
                self.env.get(".").and_then(|s| s.last()).ok_or_else(|| {
                    CompileError::new(ErrorCode::XPDY0002, "context item used without focus")
                })?
            } else {
                self.lookup_var(&v)?
            };
            d = d.max(entry.depth);
        }
        Ok(d.min(self.depth))
    }

    pub(crate) fn cur_loop(&self) -> OpId {
        self.frames[self.depth].loop_op
    }

    /// Run `f` with the current loop of this depth replaced (if/where
    /// branch restriction).
    pub(crate) fn with_loop<T>(
        &mut self,
        loop_op: OpId,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let saved = self.frames[self.depth].loop_op;
        self.frames[self.depth].loop_op = loop_op;
        let r = f(self);
        self.frames[self.depth].loop_op = saved;
        r
    }

    /// Run `f` at a shallower depth (hoisted compilation).
    pub(crate) fn at_depth<T>(
        &mut self,
        d: usize,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        assert!(d <= self.depth);
        let saved = self.depth;
        self.depth = d;
        let r = f(self);
        self.depth = saved;
        r
    }

    // ------------------------------------------------------- dispatch

    /// Compile `e` at the shallowest admissible depth, then lift the
    /// result into the current iteration scope. This realizes "the two
    /// path expressions … are evaluated once only" (§5).
    pub(crate) fn compile(&mut self, e: &Expr) -> CResult {
        let dr = self.depth_of(e)?;
        if dr < self.depth {
            let q = self.at_depth(dr, |c| c.compile_here(e))?;
            let lifted = self.lift(q, dr, self.depth);
            Ok(self.restrict_to_loop(lifted))
        } else {
            self.compile_here(e)
        }
    }

    /// Compile `e` at exactly the current depth.
    pub(crate) fn compile_here(&mut self, e: &Expr) -> CResult {
        match e {
            Expr::IntLit(i) => Ok(self.const_item(AValue::Int(*i))),
            Expr::DblLit(d) => Ok(self.const_item(AValue::dbl(*d))),
            Expr::StrLit(s) => Ok(self.const_item(AValue::Str(Arc::from(s.as_str())))),
            Expr::Empty => Ok(self.empty_seq()),
            Expr::Var(name) => {
                let entry = self.lookup_var(name)?.clone();
                let lifted = self.lift(entry.q, entry.depth, self.depth);
                Ok(self.restrict_to_loop(lifted))
            }
            Expr::ContextItem => {
                let entry = self
                    .env
                    .get(".")
                    .and_then(|s| s.last())
                    .cloned()
                    .ok_or_else(|| {
                        CompileError::new(ErrorCode::XPDY0002, "context item used without focus")
                    })?;
                let lifted = self.lift(entry.q, entry.depth, self.depth);
                Ok(self.restrict_to_loop(lifted))
            }
            Expr::Root => self.compile_root(),
            Expr::Sequence(items) => {
                let qs = items
                    .iter()
                    .map(|i| self.compile(i))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.concat_sequences(&qs))
            }
            Expr::PathStep { .. } | Expr::Filter { .. } | Expr::PathSeq { .. } => {
                self.compile_path(e)
            }
            Expr::Flwor { .. } => self.compile_flwor(e),
            Expr::Quantified { .. } | Expr::If { .. } => self.compile_boolean_shaped(e),
            Expr::Binary { .. } | Expr::Unary { .. } => self.compile_binary_unary(e),
            Expr::Call { name, args } => self.compile_call(name, args),
            Expr::Unordered(inner) => {
                // Rule FN:UNORDERED: # pos over π iter,item.
                let q = self.compile(inner)?;
                let proj = self.project_iter_item(q);
                let numbered = self.dag.add(Op::RowId {
                    input: proj,
                    new: Col::POS,
                });
                Ok(self.canonical(numbered))
            }
            Expr::OrderingScope { mode, expr } => {
                self.mode.push(*mode);
                let r = self.compile(expr);
                self.mode.pop();
                r
            }
            Expr::DirElement { .. }
            | Expr::TextConstructor(_)
            | Expr::AttrConstructor { .. }
            | Expr::ElemConstructor { .. } => self.compile_constructor(e),
        }
    }
}

#[cfg(test)]
mod tests;
