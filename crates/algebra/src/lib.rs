//! The relational algebra dialect of the paper's Table 1, represented as a
//! shared (hash-consed) DAG of operators.
//!
//! Pathfinder compiles XQuery into a deliberately restricted relational
//! algebra whose operators mirror what SQL-centric kernels can execute
//! (§3). The two stars of the paper are the *row numbering* primitives:
//!
//! * [`Op::RowNum`] — the paper's `%a:⟨b⟩‖c`, a `ROW_NUMBER() OVER
//!   (PARTITION BY c ORDER BY b)`: it materializes order and typically
//!   requires a blocking sort;
//! * [`Op::RowId`] — the paper's `#a`, which attaches *arbitrary* unique
//!   numbers and "comes at negligible cost or may even be for free".
//!
//! Order indifference is exactly the freedom to replace the former with the
//! latter. The optimizer crate (`exrquy-opt`) performs the paper's column
//! dependency analysis over this DAG; the engine crate evaluates it.
//!
//! Operators are interned: structurally identical subplans share one node,
//! which reproduces the "significant sharing opportunities" of
//! Pathfinder-emitted code (§3) and makes plan-size statistics meaningful.

pub mod col;
pub mod dag;
pub mod diff;
pub mod dot;
pub mod op;
pub mod phys;
pub mod stats;
pub mod value;

pub use col::Col;
pub use dag::{Dag, OpId, SchemaError};
pub use diff::{plan_diff, PlanDiff};
pub use op::{AggrKind, FunKind, Op, SortKey, Twig, TwigPart};
pub use phys::{lower, FuseStep, PhysOp, PhysPlan};
pub use stats::PlanStats;
pub use value::AValue;
