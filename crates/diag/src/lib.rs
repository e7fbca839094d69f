//! Shared diagnostics for the eXrQuy pipeline: a W3C-style error
//! taxonomy, execution budgets, and cooperative cancellation.
//!
//! Every pipeline crate (xml, frontend, compiler, opt, engine, core)
//! depends on this crate so that errors raised anywhere carry a stable
//! machine-readable code, the pipeline stage that raised them, and —
//! where available — a source offset. The CLI maps [`ErrorClass`] to
//! process exit codes.

pub mod failpoint;

pub use failpoint::{FailpointSpecError, Failpoints, OracleArm};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stable, machine-readable error codes. The `XP*`/`FO*`/`XQ*` codes
/// follow the W3C XQuery error namespace; `EXRQ*` codes are
/// engine-specific resource-governance codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// Syntax error in the query (static).
    XPST0003,
    /// Undefined variable or other unresolved static reference.
    XPST0008,
    /// Unknown function name / arity (static).
    XPST0017,
    /// Context item used where none is defined.
    XPDY0002,
    /// Value has the wrong type for the operation.
    XPTY0004,
    /// Value cannot be cast to the required type.
    FORG0001,
    /// Invalid argument to an effective-boolean-value computation.
    FORG0006,
    /// Arithmetic error (division by zero, …).
    FOAR0001,
    /// Document retrieval failure (document not loaded / I/O error).
    FODC0002,
    /// Document content is not well-formed XML (cf. `fn:parse-xml`).
    FODC0006,
    /// Attribute constructed after non-attribute content.
    XQTY0024,
    /// Execution budget (rows, wall-clock, constructed nodes) exceeded.
    EXRQ0001,
    /// Query cancelled via a [`CancellationToken`].
    EXRQ0002,
    /// Recursion / nesting depth limit exceeded, or a document past the
    /// 4 GiB the tree encoding addresses.
    EXRQ0003,
    /// Differential oracle divergence: an optimized execution produced a
    /// result outside the admissible set of the reference execution.
    EXRQ0004,
    /// The optimizer produced an ill-formed plan (caught by per-rewrite
    /// validation; names the offending rule and operator).
    EXRQ0005,
    /// Server overloaded: the admission queue is full and the request was
    /// shed instead of queued. Retryable after backoff.
    EXRQ0006,
    /// Request deadline exceeded — either before execution started (shed
    /// from the queue) or mid-execution via the [`BudgetMeter`]'s hard
    /// deadline.
    EXRQ0007,
    /// Server draining: shutdown in progress, no new work admitted.
    EXRQ0008,
    /// Internal error: request execution panicked and the panic was
    /// contained by the serving layer. The request's overlay is
    /// discarded; shared state is unaffected. Always an engine bug,
    /// never user error — and **never retry-safe**: the same input
    /// deterministically panics again.
    EXRQ0009,
    /// Internal error: an engine invariant was violated (e.g. a plan
    /// handed the engine a non-integer value in an `iter`/`pos`-class
    /// column). Always a planner/engine bug — the typed counterpart of a
    /// panic, so a future plan bug degrades to an error response instead
    /// of a daemon-side `catch_unwind` crash report. Never retry-safe.
    EXRQ0010,
    /// Protocol error: the request line could not be parsed as a valid
    /// request (invalid JSON, unknown op, bad field types, oversized
    /// line). The connection survives; the request does not.
    EPROTO,
}

impl ErrorCode {
    /// Every code, for exhaustive iteration (round-trip tests, retry
    /// tables). Kept in `as_str` order; the enum is `#[non_exhaustive]`,
    /// so external matches should go through this slice or [`parse`].
    ///
    /// [`parse`]: ErrorCode::parse
    pub const ALL: &'static [ErrorCode] = &[
        ErrorCode::XPST0003,
        ErrorCode::XPST0008,
        ErrorCode::XPST0017,
        ErrorCode::XPDY0002,
        ErrorCode::XPTY0004,
        ErrorCode::FORG0001,
        ErrorCode::FORG0006,
        ErrorCode::FOAR0001,
        ErrorCode::FODC0002,
        ErrorCode::FODC0006,
        ErrorCode::XQTY0024,
        ErrorCode::EXRQ0001,
        ErrorCode::EXRQ0002,
        ErrorCode::EXRQ0003,
        ErrorCode::EXRQ0004,
        ErrorCode::EXRQ0005,
        ErrorCode::EXRQ0006,
        ErrorCode::EXRQ0007,
        ErrorCode::EXRQ0008,
        ErrorCode::EXRQ0009,
        ErrorCode::EXRQ0010,
        ErrorCode::EPROTO,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::XPST0003 => "XPST0003",
            ErrorCode::XPST0008 => "XPST0008",
            ErrorCode::XPST0017 => "XPST0017",
            ErrorCode::XPDY0002 => "XPDY0002",
            ErrorCode::XPTY0004 => "XPTY0004",
            ErrorCode::FORG0001 => "FORG0001",
            ErrorCode::FORG0006 => "FORG0006",
            ErrorCode::FOAR0001 => "FOAR0001",
            ErrorCode::FODC0002 => "FODC0002",
            ErrorCode::FODC0006 => "FODC0006",
            ErrorCode::XQTY0024 => "XQTY0024",
            ErrorCode::EXRQ0001 => "EXRQ0001",
            ErrorCode::EXRQ0002 => "EXRQ0002",
            ErrorCode::EXRQ0003 => "EXRQ0003",
            ErrorCode::EXRQ0004 => "EXRQ0004",
            ErrorCode::EXRQ0005 => "EXRQ0005",
            ErrorCode::EXRQ0006 => "EXRQ0006",
            ErrorCode::EXRQ0007 => "EXRQ0007",
            ErrorCode::EXRQ0008 => "EXRQ0008",
            ErrorCode::EXRQ0009 => "EXRQ0009",
            ErrorCode::EXRQ0010 => "EXRQ0010",
            ErrorCode::EPROTO => "EPROTO",
        }
    }

    /// Inverse of [`as_str`]: recover a code from its wire rendering.
    /// Returns `None` for strings that are not a known code — callers
    /// classifying wire errors (retry policies) must treat unknown
    /// codes conservatively.
    ///
    /// [`as_str`]: ErrorCode::as_str
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// Coarse class used for CLI exit codes and retry policies.
    pub fn class(self) -> ErrorClass {
        match self {
            ErrorCode::XPST0003 | ErrorCode::XPST0008 | ErrorCode::XPST0017 | ErrorCode::EPROTO => {
                ErrorClass::Static
            }
            ErrorCode::EXRQ0001
            | ErrorCode::EXRQ0002
            | ErrorCode::EXRQ0003
            | ErrorCode::EXRQ0006
            | ErrorCode::EXRQ0007
            | ErrorCode::EXRQ0008 => ErrorClass::Resource,
            ErrorCode::EXRQ0004
            | ErrorCode::EXRQ0005
            | ErrorCode::EXRQ0009
            | ErrorCode::EXRQ0010 => ErrorClass::Verification,
            _ => ErrorClass::Dynamic,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Coarse error classes. The CLI maps these to exit codes:
/// static → 1, dynamic → 2, resource (budget/timeout/cancel) → 3,
/// I/O → 4, verification (oracle divergence / ill-formed plan) → 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    Static,
    Dynamic,
    Resource,
    Io,
    /// Self-verification failure: the pipeline caught itself producing a
    /// wrong answer or an ill-formed plan. Always a bug, never user error.
    Verification,
}

impl ErrorClass {
    /// Process exit code for this class (0 is success, 64 is usage).
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorClass::Static => 1,
            ErrorClass::Dynamic => 2,
            ErrorClass::Resource => 3,
            ErrorClass::Io => 4,
            ErrorClass::Verification => 5,
        }
    }
}

/// The pipeline stage that raised an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// XML document parsing / loading.
    Document,
    /// XQuery tokenizing + parsing.
    Parse,
    /// Normalization of the AST.
    Normalize,
    /// Compilation to the algebra DAG.
    Compile,
    /// Optimization passes.
    Optimize,
    /// Plan evaluation.
    Execute,
    /// Differential self-verification (the three-way oracle).
    Verify,
}

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Document => "document",
            Stage::Parse => "parse",
            Stage::Normalize => "normalize",
            Stage::Compile => "compile",
            Stage::Optimize => "optimize",
            Stage::Execute => "execute",
            Stage::Verify => "verify",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Resource ceilings for one query. All limits default to `None`
/// (unbounded); `Session` applies a conservative default recursion
/// depth even when no budget is supplied so that hostile inputs cannot
/// overflow the stack.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ExecutionBudget {
    /// Maximum rows any single operator may materialize.
    pub max_rows_per_op: Option<usize>,
    /// Maximum rows materialized across the whole plan.
    pub max_rows_total: Option<usize>,
    /// Wall-clock ceiling for evaluation.
    pub max_wall: Option<Duration>,
    /// Maximum XML nodes constructed during evaluation.
    pub max_nodes: Option<usize>,
    /// Maximum recursion / nesting depth in the parser and normalizer.
    pub max_depth: Option<usize>,
}

impl ExecutionBudget {
    pub fn unbounded() -> Self {
        Self::default()
    }

    pub fn with_max_rows_per_op(mut self, n: usize) -> Self {
        self.max_rows_per_op = Some(n);
        self
    }

    pub fn with_max_rows_total(mut self, n: usize) -> Self {
        self.max_rows_total = Some(n);
        self
    }

    pub fn with_max_wall(mut self, d: Duration) -> Self {
        self.max_wall = Some(d);
        self
    }

    pub fn with_max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = Some(n);
        self
    }

    pub fn with_max_depth(mut self, n: usize) -> Self {
        self.max_depth = Some(n);
        self
    }
}

/// A budget or cancellation trip, ready to be wrapped into the raising
/// stage's error type.
#[derive(Debug, Clone)]
pub struct BudgetViolation {
    pub code: ErrorCode,
    pub message: String,
}

impl BudgetViolation {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        BudgetViolation {
            code,
            message: message.into(),
        }
    }
}

/// The shared, atomic run-time state of one query execution's
/// [`ExecutionBudget`]: row counters, operator counters, `fn:doc` access
/// counters, a wall-clock deadline and the cancellation token, all
/// behind atomics so every worker thread of an intra-query parallel
/// execution charges the *same* meter. Budget decrements and failpoint
/// polls are the engine's yield points — they happen at operator
/// boundaries on every thread, so cancellation and budget trips
/// propagate across the whole worker pool within one operator.
///
/// Serial executions use the same meter (uncontended atomics are cheap),
/// which keeps the accounting semantics of the two modes identical.
#[derive(Debug)]
pub struct BudgetMeter {
    budget: ExecutionBudget,
    deadline: Option<Instant>,
    /// Absolute request deadline (serving-layer shedding); trips as
    /// [`ErrorCode::EXRQ0007`] rather than the budget's EXRQ0001, so a
    /// shed request is distinguishable from a query that ran over its own
    /// resource ceiling.
    hard_deadline: Option<Instant>,
    cancel: Option<CancellationToken>,
    rows_total: AtomicUsize,
    ops_seen: AtomicUsize,
    doc_accesses: AtomicUsize,
}

impl BudgetMeter {
    /// Arm a meter: the wall-clock deadline starts now.
    pub fn new(budget: ExecutionBudget, cancel: Option<CancellationToken>) -> Self {
        let deadline = budget.max_wall.map(|d| Instant::now() + d);
        BudgetMeter {
            budget,
            deadline,
            hard_deadline: None,
            cancel,
            rows_total: AtomicUsize::new(0),
            ops_seen: AtomicUsize::new(0),
            doc_accesses: AtomicUsize::new(0),
        }
    }

    /// Attach an absolute request deadline (the serving layer's
    /// admission-to-completion budget). Polled at the same yield points
    /// as the wall-clock budget; trips with [`ErrorCode::EXRQ0007`].
    pub fn with_hard_deadline(mut self, at: Instant) -> Self {
        self.hard_deadline = Some(at);
        self
    }

    /// The limits this meter enforces.
    pub fn budget(&self) -> &ExecutionBudget {
        &self.budget
    }

    /// Cancellation + wall-clock poll — the cooperative yield point,
    /// called once per operator on whichever thread evaluates it.
    pub fn poll(&self) -> Result<(), BudgetViolation> {
        if self
            .cancel
            .as_ref()
            .is_some_and(CancellationToken::is_cancelled)
        {
            return Err(BudgetViolation::new(ErrorCode::EXRQ0002, "query cancelled"));
        }
        if let Some(deadline) = self.hard_deadline {
            if Instant::now() >= deadline {
                return Err(BudgetViolation::new(
                    ErrorCode::EXRQ0007,
                    "request deadline exceeded",
                ));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetViolation::new(
                    ErrorCode::EXRQ0001,
                    "wall-clock budget exceeded",
                ));
            }
        }
        Ok(())
    }

    /// Effective row ceiling for the next operator: the per-operator cap
    /// and whatever remains of the total-row budget, whichever is lower
    /// (`usize::MAX` when unbounded).
    pub fn op_row_cap(&self) -> usize {
        let per_op = self.budget.max_rows_per_op.unwrap_or(usize::MAX);
        let remaining = self.budget.max_rows_total.map_or(usize::MAX, |t| {
            t.saturating_sub(self.rows_total.load(Ordering::Relaxed))
        });
        per_op.min(remaining)
    }

    /// Account one operator's output rows against the per-operator and
    /// total ceilings.
    pub fn charge_rows(&self, nrows: usize) -> Result<(), BudgetViolation> {
        if let Some(cap) = self.budget.max_rows_per_op {
            if nrows > cap {
                return Err(BudgetViolation::new(
                    ErrorCode::EXRQ0001,
                    format!("operator materialized {nrows} rows, exceeding the per-operator budget of {cap}"),
                ));
            }
        }
        let total = self.rows_total.fetch_add(nrows, Ordering::Relaxed) + nrows;
        if let Some(cap) = self.budget.max_rows_total {
            if total > cap {
                return Err(BudgetViolation::new(
                    ErrorCode::EXRQ0001,
                    format!(
                        "plan materialized {total} rows in total, exceeding the budget of {cap}"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Enforce the constructed-node ceiling against a current count.
    pub fn check_nodes(&self, constructed: usize) -> Result<(), BudgetViolation> {
        if let Some(cap) = self.budget.max_nodes {
            if constructed > cap {
                return Err(BudgetViolation::new(
                    ErrorCode::EXRQ0001,
                    format!(
                        "query constructed {constructed} XML nodes, exceeding the budget of {cap}"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Rows materialized so far across all operators (and threads).
    pub fn rows_total(&self) -> usize {
        self.rows_total.load(Ordering::Relaxed)
    }

    /// Operators fully evaluated so far — the counter behind the
    /// `cancel-after` failpoint. Deterministic under serial execution;
    /// under parallel execution completions race, so an injected cancel
    /// still fires but not necessarily at the same operator.
    pub fn ops_seen(&self) -> usize {
        self.ops_seen.load(Ordering::Relaxed)
    }

    /// Record one completed operator.
    pub fn record_op(&self) {
        self.ops_seen.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one `fn:doc` access; returns the new 1-based access count
    /// (the counter behind the `doc-io` failpoint).
    pub fn record_doc_access(&self) -> usize {
        self.doc_accesses.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Cooperative cancellation flag, shareable across threads. The engine
/// polls it once per evaluated operator (and inside the expansion loops
/// of row-explosive operators), so cancellation takes effect at the
/// next operator boundary.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken(Arc<AtomicBool>);

impl CancellationToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// True when `other` is a clone of this token (shares the flag) —
    /// identity, not state. Lets a registry of in-flight runs deregister
    /// exactly the token it registered.
    pub fn same_as(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Approximate heap cost of one constructed XML node, used to convert
/// the engine's constructed-node counter into the byte figure a
/// [`MemoryGauge`] publishes. Deliberately coarse: the gauge governs
/// admission (a watermark, not an allocator), so a stable fiction beats
/// a fragile exact count.
pub const APPROX_NODE_BYTES: usize = 78;

#[derive(Debug, Default)]
struct GaugeInner {
    current: AtomicUsize,
    peak: AtomicUsize,
}

/// Process-wide gauge of approximate memory held by in-flight query
/// executions. Cloneable (clones share the count); each execution
/// publishes through its own [`MemoryTracker`], whose `Drop` releases
/// the charge — so the gauge stays accurate even when an execution
/// unwinds from a panic.
///
/// The serving layer compares `bytes_in_flight()` against a
/// high-watermark to defer or shed new admissions (graceful
/// degradation on the memory axis, which per-query budgets don't
/// cover: many individually-cheap queries can still balloon the
/// process).
#[derive(Debug, Clone, Default)]
pub struct MemoryGauge(Arc<GaugeInner>);

impl MemoryGauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Approximate bytes currently held by in-flight executions.
    pub fn bytes_in_flight(&self) -> usize {
        self.0.current.load(Ordering::Relaxed)
    }

    /// High-watermark of `bytes_in_flight` since the gauge was created.
    pub fn peak_bytes(&self) -> usize {
        self.0.peak.load(Ordering::Relaxed)
    }

    /// A tracker for one execution. Charges flow into this gauge and
    /// are released when the tracker drops (normally or by unwinding).
    pub fn tracker(&self) -> MemoryTracker {
        MemoryTracker {
            gauge: Arc::clone(&self.0),
            charged: 0,
        }
    }
}

/// One execution's handle on a [`MemoryGauge`]. Publishes a monotone
/// running total via [`charge_to`]; the difference is added to the
/// shared gauge immediately and subtracted again on `Drop`.
///
/// [`charge_to`]: MemoryTracker::charge_to
#[derive(Debug)]
pub struct MemoryTracker {
    gauge: Arc<GaugeInner>,
    charged: usize,
}

impl MemoryTracker {
    /// Publish this execution's current total. Totals only grow (an
    /// execution's overlay is append-only until it drops); a smaller
    /// value than previously charged is ignored.
    pub fn charge_to(&mut self, total_bytes: usize) {
        if total_bytes > self.charged {
            let delta = total_bytes - self.charged;
            self.charged = total_bytes;
            let now = self.gauge.current.fetch_add(delta, Ordering::Relaxed) + delta;
            self.gauge.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Bytes this tracker has charged so far.
    pub fn charged(&self) -> usize {
        self.charged
    }
}

impl Drop for MemoryTracker {
    fn drop(&mut self) {
        if self.charged > 0 {
            self.gauge
                .current
                .fetch_sub(self.charged, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_and_classify() {
        assert_eq!(ErrorCode::XPST0003.as_str(), "XPST0003");
        assert_eq!(ErrorCode::XPST0003.class(), ErrorClass::Static);
        assert_eq!(ErrorCode::XPTY0004.class(), ErrorClass::Dynamic);
        assert_eq!(ErrorCode::EXRQ0001.class(), ErrorClass::Resource);
        assert_eq!(ErrorClass::Resource.exit_code(), 3);
        assert_eq!(format!("{}", ErrorCode::EXRQ0002), "EXRQ0002");
        assert_eq!(ErrorCode::FODC0006.class(), ErrorClass::Dynamic);
        assert_eq!(ErrorCode::EXRQ0004.class(), ErrorClass::Verification);
        assert_eq!(ErrorCode::EXRQ0005.class(), ErrorClass::Verification);
        assert_eq!(ErrorClass::Verification.exit_code(), 5);
        assert_eq!(Stage::Verify.as_str(), "verify");
    }

    #[test]
    fn serving_codes_are_resource_class() {
        for code in [
            ErrorCode::EXRQ0006,
            ErrorCode::EXRQ0007,
            ErrorCode::EXRQ0008,
        ] {
            assert_eq!(code.class(), ErrorClass::Resource);
            assert_eq!(code.class().exit_code(), 3);
        }
        assert_eq!(ErrorCode::EXRQ0006.as_str(), "EXRQ0006");
        assert_eq!(format!("{}", ErrorCode::EXRQ0007), "EXRQ0007");
    }

    #[test]
    fn hard_deadline_trips_as_exrq0007() {
        let m = BudgetMeter::new(ExecutionBudget::unbounded(), None)
            .with_hard_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(m.poll().unwrap_err().code, ErrorCode::EXRQ0007);
        // A generous deadline does not trip.
        let m = BudgetMeter::new(ExecutionBudget::unbounded(), None)
            .with_hard_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(m.poll().is_ok());
        // The hard deadline outranks the wall budget in the poll order.
        let m = BudgetMeter::new(
            ExecutionBudget::unbounded().with_max_wall(Duration::ZERO),
            None,
        )
        .with_hard_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(m.poll().unwrap_err().code, ErrorCode::EXRQ0007);
    }

    #[test]
    fn cancellation_is_shared() {
        let t = CancellationToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn meter_charges_rows_atomically() {
        let m = BudgetMeter::new(ExecutionBudget::unbounded().with_max_rows_total(10), None);
        assert_eq!(m.op_row_cap(), 10);
        m.charge_rows(6).unwrap();
        assert_eq!(m.op_row_cap(), 4);
        let e = m.charge_rows(5).unwrap_err();
        assert_eq!(e.code, ErrorCode::EXRQ0001);
        // Per-operator cap is independent of the running total.
        let m = BudgetMeter::new(ExecutionBudget::unbounded().with_max_rows_per_op(3), None);
        assert!(m.charge_rows(3).is_ok());
        assert_eq!(m.charge_rows(4).unwrap_err().code, ErrorCode::EXRQ0001);
    }

    #[test]
    fn meter_polls_cancellation_from_any_clone() {
        let t = CancellationToken::new();
        let m = BudgetMeter::new(ExecutionBudget::unbounded(), Some(t.clone()));
        assert!(m.poll().is_ok());
        t.cancel();
        assert_eq!(m.poll().unwrap_err().code, ErrorCode::EXRQ0002);
        m.record_op();
        m.record_op();
        assert_eq!(m.ops_seen(), 2);
        assert_eq!(m.record_doc_access(), 1);
        assert_eq!(m.record_doc_access(), 2);
    }

    #[test]
    fn every_code_round_trips_through_render_and_parse() {
        // Exhaustive: every code (including EXRQ0009 and EPROTO)
        // renders to a unique string and parses back to itself.
        let mut seen = std::collections::HashSet::new();
        for &code in ErrorCode::ALL {
            let s = code.as_str();
            assert!(seen.insert(s), "duplicate wire rendering {s}");
            assert_eq!(ErrorCode::parse(s), Some(code), "round trip for {s}");
            assert_eq!(format!("{code}"), s);
            // Every class maps to a stable nonzero exit code.
            assert!(code.class().exit_code() >= 1);
        }
        assert_eq!(seen.len(), ErrorCode::ALL.len());
        assert_eq!(ErrorCode::parse("EXRQ9999"), None);
        assert_eq!(ErrorCode::parse(""), None);
        assert_eq!(ErrorCode::parse("exrq0001"), None, "parse is case-exact");
    }

    #[test]
    fn new_codes_classify_for_serving() {
        // A contained panic is always an engine bug: verification class.
        assert_eq!(ErrorCode::EXRQ0009.class(), ErrorClass::Verification);
        // A malformed request is the client's static mistake.
        assert_eq!(ErrorCode::EPROTO.class(), ErrorClass::Static);
        assert_eq!(ErrorCode::EPROTO.as_str(), "EPROTO");
    }

    #[test]
    fn memory_gauge_tracks_and_releases_charges() {
        let g = MemoryGauge::new();
        assert_eq!(g.bytes_in_flight(), 0);
        let mut a = g.tracker();
        a.charge_to(100);
        a.charge_to(250);
        // Monotone: lower totals are ignored.
        a.charge_to(10);
        assert_eq!(a.charged(), 250);
        let clone = g.clone();
        assert_eq!(clone.bytes_in_flight(), 250);
        let mut b = clone.tracker();
        b.charge_to(50);
        assert_eq!(g.bytes_in_flight(), 300);
        assert_eq!(g.peak_bytes(), 300);
        drop(a);
        assert_eq!(g.bytes_in_flight(), 50);
        drop(b);
        assert_eq!(g.bytes_in_flight(), 0);
        // Peak is sticky.
        assert_eq!(g.peak_bytes(), 300);
    }

    #[test]
    fn memory_tracker_releases_on_unwind() {
        let g = MemoryGauge::new();
        let g2 = g.clone();
        let r = std::panic::catch_unwind(move || {
            let mut t = g2.tracker();
            t.charge_to(4096);
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(g.bytes_in_flight(), 0, "unwind must release the charge");
        assert_eq!(g.peak_bytes(), 4096);
    }

    #[test]
    fn budget_builders() {
        let b = ExecutionBudget::unbounded()
            .with_max_rows_total(10)
            .with_max_depth(5);
        assert_eq!(b.max_rows_total, Some(10));
        assert_eq!(b.max_depth, Some(5));
        assert_eq!(b.max_wall, None);
    }
}
