//! Self-verification harnesses for the eXrQuy pipeline.
//!
//! The primitive — the three-way differential oracle — lives in the core
//! crate as [`Session::verify`](exrquy::Session::verify): it executes one
//! query unoptimized, optimized, and optimized with `%`-weakening
//! disabled, and compares the results under the equivalence the effective
//! ordering mode grants (exact sequences when `ordered`, bags when
//! `unordered`). This crate builds the batch layers on top:
//!
//! * [`suite`] — the XMark differential suite: all 20 benchmark queries,
//!   over a matrix of generator seeds and scale factors, through the
//!   oracle. Any divergence is a bug in the optimizer (or the oracle).
//! * [`harness`] — the fault-injection matrix: a grid of failpoint specs
//!   (`doc-io`, `doc-parse`, `budget-trip`, `cancel-after`) run against
//!   real queries, asserting *graceful degradation*: the expected typed
//!   error code, no panic, no partially-built store state, and a session
//!   that remains usable afterwards.
//! * [`lattice`] — the configuration lattice: one byte-identity
//!   differential for every execution axis. A `Config { cost,
//!   vectorized, transport, constructors, failpoints }` names a point;
//!   every cell (XMark whole and split by subtree, fuzz single- and
//!   multi-document streams with authored joins, under its compiler
//!   profile) runs at the reference point (uncosted, scalar, direct,
//!   constructors as written) and under every row of an eleven-row
//!   pairwise covering table, and each row must
//!   render the same items in the same order or fail with the same error
//!   code.
//!   Served rows go through an in-process `xqd`, chaos rows through the
//!   retrying `xqc` client over a fault-injected transport. A red cell
//!   is minimised, its culprit axis named, and a compile-side culprit
//!   attributed to a rule; witness counters keep a green run from being
//!   a vacuous one.
//! * [`fuzz`] — the self-minimizing differential fuzzer (CLI:
//!   `fuzz-verify`): a grammar-driven generator draws random documents
//!   and queries per seeded cell and pushes each through the oracle,
//!   under both the ordered (sequence-equivalence) and unordered
//!   (bag-equivalence) profiles.
//! * [`shrink`](mod@shrink) — on a divergence, a structural AST minimizer reduces
//!   the query to a local minimum that still diverges (the caller's
//!   probe says what "diverges" means: the oracle, or a lattice row
//!   against its reference), probing each candidate through a
//!   pretty-print→re-parse round so the reported text is exactly the
//!   query that fails.
//! * [`attribute`] — per-rule attribution: re-run the minimized query
//!   with rules from the plan's rewrite and cost traces disabled
//!   (bisection with single-rule fallback) to name the culprit rewrite,
//!   or report the fault engine-side.
//!
//! All layers are deterministic end to end — documents come from seeded
//! generators, failpoints are counter-based — so a red run reproduces on
//! every machine.

pub mod attribute;
pub mod fuzz;
pub mod harness;
pub mod lattice;
pub mod shrink;
pub mod suite;

pub use attribute::{attribute_divergence, Attribution};
pub use fuzz::{
    gen_corpus, gen_doc, gen_query, gen_query_corpus, run_fuzz, Corpus, Divergence, FuzzConfig,
    FuzzProfile, FuzzReport,
};
pub use harness::{
    coverage_corpus, default_cases, failpoint_coverage, run_fault_matrix, CoverageReport,
    FaultCase, FaultOutcome, FaultReport, KindExemplar,
};
pub use lattice::{run_lattice, Config, Lattice, Report};
pub use shrink::{shrink, weight, ShrinkOutcome};
pub use suite::{run_xmark_suite, QueryOutcome, SuiteConfig, SuiteReport};
