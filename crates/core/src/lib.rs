//! eXrQuy — a relational XQuery processor exploiting *order indifference*.
//!
//! This crate is the facade over the full pipeline reproduced from
//! "eXrQuy: Order Indifference in XQuery" (Grust, Rittinger, Teubner,
//! ICDE 2007):
//!
//! ```text
//! XQuery text ─parse→ AST ─normalize→ Core ─compile→ algebra DAG
//!       ─optimize (column dependency analysis)→ plan ─execute→ result
//! ```
//!
//! # Quick start
//!
//! ```
//! use exrquy::Session;
//!
//! let mut session = Session::new();
//! session
//!     .load_document("t.xml", "<a><b><c/><d/></b><c/></a>")
//!     .unwrap();
//! let out = session
//!     .query(r#"for $c in doc("t.xml")//c return <hit>{ $c }</hit>"#)
//!     .unwrap();
//! assert_eq!(out.to_xml(), "<hit><c/></hit><hit><c/></hit>");
//! ```
//!
//! The paper's experiments toggle between two compiler configurations:
//!
//! * [`QueryOptions::baseline`] — the order-*aware* compiler: no
//!   `fn:unordered` normalization, `ordered` mode rules LOC/BIND, no
//!   column dependency analysis (current processors per §6);
//! * [`QueryOptions::order_indifferent`] — the modified compiler of §5:
//!   normalization inserts `fn:unordered(·)`, ordering mode `unordered`
//!   activates Rules LOC#/BIND#, and the column dependency analysis plus
//!   `%`-weakening run over the plan.

pub mod executor;
pub mod result;
pub mod session;
pub mod verify;

pub use executor::{CacheStats, Executor, RunOptions};
pub use result::ResultItem;
pub use session::{Error, NodeCounts, Prepared, QueryOptions, QueryOutput, Session};
pub use verify::{ArmReport, Equivalence, VerifyError, VerifyReport};

// Re-exports for downstream harnesses.
pub use exrquy_algebra as algebra;
pub use exrquy_diag as diag;
pub use exrquy_engine as engine;
pub use exrquy_frontend as frontend;
pub use exrquy_opt as opt;
pub use exrquy_xml as xml;
