//! Columnar in-memory execution engine — the stand-in for the paper's
//! MonetDB back-end. It is handed one plan form, the flattened
//! [`exrquy_algebra::PhysPlan`], and runs it with one driver
//! ([`Engine::eval_plan`]): serially in slot order, or on the
//! work-stealing scheduler when more than one thread is configured.
//!
//! Design goals mirror what makes the paper's cost model tick:
//!
//! * the narrow `iter|pos|item` tables are stored column-wise
//!   ([`Column`]), with `Arc`-shared columns so projection/rename is free
//!   (MonetDB "operates on table descriptors rather than individual rows");
//! * `#` ([`exrquy_algebra::Op::RowId`]) materializes a dense integer
//!   column in one `memcpy`-class pass — "negligible cost or even free";
//! * `%` ([`exrquy_algebra::Op::RowNum`]) performs a real sort — the
//!   blocking operator whose elimination the whole paper is about;
//! * the step operator `⬡` is evaluated with staircase join
//!   (`exrquy-xml::axis`), per iteration group and fragment;
//! * every operator's wall-clock time is recorded per operator *kind*
//!   ([`Profile`]), which is exactly the granularity of the paper's
//!   Table 2 breakdown.
//!
//! An operator reachable via ten paths is one plan slot and is evaluated
//! once per execution (§3's sharing).
//!
//! `EngineOptions::scalar` selects the reference arm — the unfused
//! lowering with row-at-a-time kernel bodies — over the same driver; the
//! differential suites compare the default vectorized arm against it.

mod aggr;
pub mod bits;
pub mod column;
mod construct;
mod dense;
pub mod eval;
pub mod funs;
pub mod item;
mod join;
mod kernels;
mod par;
pub mod profile;
mod sort;
mod step;
pub mod table;
mod vec;

pub use bits::BitVec;
pub use column::{Column, ColumnBuilder, ColumnError};
pub use eval::{Engine, EngineOptions, EvalError};
pub use item::Item;
pub use profile::{Profile, SchedStats, VecStats};
pub use table::{ColView, SelVec, Table};
