//! The query session: document registry + the parse→normalize→compile→
//! optimize→execute pipeline.

use crate::executor::{CacheStats, Executor, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::result::{serialize_sequence, ResultItem};
use crate::verify::VerifyError;
use exrquy_algebra::{Dag, OpId, PlanStats};
use exrquy_compiler::CompileError;
use exrquy_diag::{CancellationToken, ErrorClass, ErrorCode, ExecutionBudget, Failpoints, Stage};
use exrquy_engine::Profile;
use exrquy_frontend::{OrderingMode, XqError};
use exrquy_opt::{CostReport, OptError, OptOptions, OptReport};
use exrquy_xml::{Catalog, CatalogBuilder, NamePool, ParseError};
use std::fmt;
use std::sync::Arc;

/// Any failure along the pipeline.
#[derive(Debug)]
pub enum Error {
    Xml(ParseError),
    Parse(XqError),
    Compile(CompileError),
    Opt(OptError),
    Eval(exrquy_engine::EvalError),
    Verify(VerifyError),
}

impl Error {
    /// The machine-readable error code, regardless of pipeline stage.
    pub fn code(&self) -> ErrorCode {
        match self {
            Error::Xml(e) => e.code,
            Error::Parse(e) => e.code,
            Error::Compile(e) => e.code,
            Error::Opt(_) => ErrorCode::EXRQ0005,
            Error::Eval(e) => e.code,
            Error::Verify(e) => e.code,
        }
    }

    /// The pipeline stage that raised the error.
    pub fn stage(&self) -> Stage {
        match self {
            Error::Xml(_) => Stage::Document,
            Error::Parse(_) => Stage::Parse,
            Error::Compile(_) => Stage::Compile,
            Error::Opt(_) => Stage::Optimize,
            Error::Eval(_) => Stage::Execute,
            Error::Verify(_) => Stage::Verify,
        }
    }

    /// Coarse class (static / dynamic / resource), e.g. for exit codes.
    pub fn class(&self) -> ErrorClass {
        self.code().class()
    }

    /// One-line rendering with the code, e.g.
    /// `[XPST0003] XQuery error at byte 4: expected expression`.
    pub fn render_line(&self) -> String {
        format!("[{}] {self}", self.code())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Xml(e) => write!(f, "{e}"),
            Error::Parse(e) => write!(f, "{e}"),
            Error::Compile(e) => write!(f, "{e}"),
            Error::Opt(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "{e}"),
            Error::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Compiler/runtime configuration for one query.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Run the order-indifference normalization (Rules FN:COUNT, QUANT,
    /// general-comparison wrapping, `order by` flagging). When `false`,
    /// `fn:unordered()` degrades to the identity function (§6 baseline).
    pub exploit: bool,
    /// Override the prolog's `declare ordering`.
    pub ordering: Option<OrderingMode>,
    /// Plan optimization (column dependency analysis etc.).
    pub opt: OptOptions,
    /// Resource ceilings (rows, wall-clock, constructed nodes, nesting
    /// depth). Defaults to unbounded, except that the parsers always
    /// apply their own conservative depth limits.
    pub budget: ExecutionBudget,
    /// Cooperative cancellation; the engine polls it per operator.
    pub cancel: Option<CancellationToken>,
    /// Armed failpoints (deterministic fault injection); empty by default.
    pub failpoints: Failpoints,
    /// Scheduler workers for one execution: above one, independent
    /// operators of the plan run concurrently (`0` and `1` = serial);
    /// each operator's kernel is single-threaded either way. Serial and
    /// parallel runs produce byte-identical serializations.
    pub threads: usize,
    /// Run the vectorized arm: the plan is lowered at prepare time with
    /// select→fun→project chains fused into single-pass kernels and
    /// executed over selection vectors. When `false`, the scalar
    /// reference arm runs instead — the unfused lowering with
    /// row-at-a-time kernel bodies, through the same driver. Both produce
    /// byte-identical serializations — the vectorization differential
    /// asserts exactly that.
    pub vectorized: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions::order_indifferent()
    }
}

impl QueryOptions {
    /// The paper's §5 "order indifference enabled" configuration:
    /// normalization on, ordering mode `unordered`, full optimization.
    pub fn order_indifferent() -> Self {
        QueryOptions {
            exploit: true,
            ordering: Some(OrderingMode::Unordered),
            opt: OptOptions::default(),
            budget: ExecutionBudget::default(),
            cancel: None,
            failpoints: Failpoints::none(),
            threads: 1,
            vectorized: true,
        }
    }

    /// The unmodified, fully order-aware compiler (the baseline current
    /// processors implement per §6).
    pub fn baseline() -> Self {
        QueryOptions {
            exploit: false,
            ordering: Some(OrderingMode::Ordered),
            opt: OptOptions::disabled(),
            budget: ExecutionBudget::default(),
            cancel: None,
            failpoints: Failpoints::none(),
            threads: 1,
            vectorized: true,
        }
    }

    /// Honor the query's own prolog (`declare ordering`), exploitation and
    /// optimization on — the spec-faithful default for library users.
    pub fn honor_prolog() -> Self {
        QueryOptions {
            exploit: true,
            ordering: None,
            opt: OptOptions::default(),
            budget: ExecutionBudget::default(),
            cancel: None,
            failpoints: Failpoints::none(),
            threads: 1,
            vectorized: true,
        }
    }

    /// Attach resource ceilings.
    pub fn with_budget(mut self, budget: ExecutionBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, cancel: CancellationToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Arm failpoints (deterministic fault injection).
    pub fn with_failpoints(mut self, failpoints: Failpoints) -> Self {
        self.failpoints = failpoints;
        self
    }

    /// Set the scheduler worker count: how many independent operators of
    /// one plan may run at once (`0` and `1` both mean serial execution).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggle the vectorized arm (`false` prepares the unfused plan and
    /// runs the row-at-a-time reference kernels; used by the
    /// vectorization differential and the benchmark's oracle).
    pub fn with_vectorized(mut self, vectorized: bool) -> Self {
        self.vectorized = vectorized;
        self
    }
}

/// A compiled, optimized, reusable query plan.
#[derive(Debug)]
pub struct Prepared {
    pub dag: Dag,
    pub root: OpId,
    /// The flattened physical program (lowered once at prepare time;
    /// every execution runs it without re-deriving the schedule). Fused
    /// chains are present exactly when the plan was prepared with
    /// [`QueryOptions::vectorized`].
    pub phys: exrquy_algebra::PhysPlan,
    /// Whether executions of this plan run the vectorized kernel bodies
    /// (otherwise the scalar reference bodies, over the unfused `phys`).
    pub(crate) vectorized: bool,
    /// Plan statistics before optimization.
    pub stats_initial: PlanStats,
    /// Plan statistics of the final plan.
    pub stats_final: PlanStats,
    pub opt_report: OptReport,
    /// Cost-based planning report: per-operator cardinality estimates
    /// (joined with the execution profile's actual row counts by
    /// `xq --explain`), join clusters examined/reordered, compensation
    /// sorts elided, and the cost rewrite trace.
    pub cost_report: CostReport,
    /// The plan's frozen name-pool snapshot (catalog names plus names the
    /// compiler interned for this query), shared with every execution's
    /// arena — plan rendering borrows it, never copies it.
    pub(crate) names: Arc<NamePool>,
    /// Resource ceilings and cancellation carried from the options the
    /// plan was prepared with; applied on every [`Session::execute`].
    pub(crate) budget: ExecutionBudget,
    pub(crate) cancel: Option<CancellationToken>,
    /// Armed failpoints carried from the options.
    pub(crate) failpoints: Failpoints,
    /// Scheduler worker count carried from the options.
    pub(crate) threads: usize,
    /// The effective ordering mode this plan was compiled under (after
    /// any option override of the prolog's `declare ordering`) — it
    /// decides which result equivalence the differential oracle applies.
    pub ordering: OrderingMode,
}

impl Prepared {
    fn resolver(&self) -> impl Fn(exrquy_xml::NameId) -> String + '_ {
        move |id: exrquy_xml::NameId| {
            self.names
                .get(id)
                .map(str::to_owned)
                .unwrap_or_else(|| id.to_string())
        }
    }

    /// Indented text rendering of the plan.
    pub fn plan_text(&self) -> String {
        exrquy_algebra::dot::to_text_named(&self.dag, self.root, &self.resolver())
    }

    /// Graphviz rendering of the plan.
    pub fn plan_dot(&self, title: &str) -> String {
        exrquy_algebra::dot::to_dot(&self.dag, self.root, title)
    }

    /// The `--explain` table: one row per slot of the physical program
    /// (execution order) — the operator with its operand slots, or a
    /// fused chain's members (chain order; `plan_text` spells each
    /// `@id` out) — with the cost model's estimated cardinality next to
    /// the row count and wall time `profile` observed (when a run's
    /// profile is supplied), followed by the fusion, `cost:` and
    /// plan-cache footer lines. A fused chain reports its tail: the
    /// table the slot publishes. Estimates show `-` when the cost model
    /// could not type an operator.
    pub fn explain_table(&self, profile: Option<&Profile>, cache: &CacheStats) -> String {
        use exrquy_algebra::PhysOp;
        use std::fmt::Write;
        let labels: Vec<String> = self
            .phys
            .ops
            .iter()
            .map(|op| {
                let mut label = match op {
                    PhysOp::Op { id, .. } => format!("{} {id}", self.dag.op(*id).kind_name()),
                    PhysOp::Fused { members, .. } => {
                        let ids: Vec<String> = members.iter().map(OpId::to_string).collect();
                        format!("fused {}", ids.join("→"))
                    }
                };
                if !op.args().is_empty() {
                    let args: Vec<String> = op.args().iter().map(|a| format!("s{a}")).collect();
                    let _ = write!(label, " ({})", args.join(", "));
                }
                label
            })
            .collect();
        let width = labels.iter().map(|l| l.chars().count()).max().unwrap_or(0);
        let width = width.max("operator".len());
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>5}  {:<width$}  {:>12}  {:>10}  {:>8}  {:>9}",
            "slot", "operator", "estimated", "actual", "err", "ms"
        );
        for (i, (op, label)) in self.phys.ops.iter().zip(&labels).enumerate() {
            let id = op.out_id();
            let est = self.cost_report.estimates.get(&id).copied();
            let actual = profile.and_then(|p| p.op_rows(id));
            let est_s = est.map_or_else(|| "-".to_string(), |e| format!("{e:.1}"));
            let act_s = actual.map_or_else(|| "-".to_string(), |a| a.to_string());
            // Relative error ×N (estimated/actual, whichever ≥1) — the
            // at-a-glance "how wrong was the model here" column.
            let err_s = match (est, actual) {
                (Some(e), Some(a)) => {
                    let (e, a) = (e.max(1e-3), a as f64);
                    let ratio = if a == 0.0 {
                        e.max(1.0)
                    } else if e >= a {
                        e / a
                    } else {
                        a / e
                    };
                    format!("x{ratio:.1}")
                }
                _ => "-".to_string(),
            };
            let ms_s = match (profile, actual) {
                (Some(p), Some(_)) => format!("{:.3}", p.op_time(id).as_secs_f64() * 1e3),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                s,
                "{:>5}  {label:<width$}  {est_s:>12}  {act_s:>10}  {err_s:>8}  {ms_s:>9}",
                format!("s{i}")
            );
        }
        if let Some(p) = profile {
            let _ = writeln!(
                s,
                "fusion: {} phys slot(s), {} fused chain(s) absorbing {} op(s)",
                p.vec.phys_slots, p.vec.fused_chains, p.vec.fused_ops
            );
            // Only a run with `threads > 1` goes through the scheduler.
            let sched = &p.sched;
            if *sched != Default::default() {
                let _ = writeln!(
                    s,
                    "scheduler: {} region(s), {} parallel op(s), {} inline op(s), \
                     {} steal(s), queue peak {}",
                    sched.regions, sched.par_ops, sched.inline_ops, sched.steals, sched.queue_peak
                );
            }
        }
        let _ = writeln!(
            s,
            "cost: {} join cluster(s), {} reordered ({} compensation sort(s) elided)",
            self.cost_report.clusters, self.cost_report.reordered, self.cost_report.elided
        );
        for fired in &self.cost_report.trace {
            let _ = writeln!(s, "  {} at op {}", fired.rule, fired.before);
        }
        let _ = writeln!(
            s,
            "plan cache: {} hit(s), {} miss(es), {} uncacheable, {} evicted ({:.0}% hit rate)",
            cache.hits,
            cache.misses,
            cache.uncacheable,
            cache.evictions,
            cache.hit_rate() * 100.0
        );
        s
    }
}

/// Result of one query execution.
#[derive(Debug)]
pub struct QueryOutput {
    pub items: Vec<ResultItem>,
    /// Per-operator-kind timings of this execution.
    pub profile: Profile,
    pub nodes: NodeCounts,
}

/// What an execution wrote against what it returned. `constructed` over
/// `result` is the constructors' write amplification: 1.0 when every
/// node is written once, into the answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounts {
    /// Nodes written into new fragments (what `max_nodes` bounds).
    pub constructed: usize,
    /// Fragments those nodes live in — one per constructor evaluated.
    pub fragments: usize,
    /// Nodes of the result items' subtrees, constructed or not.
    pub result: usize,
}

impl QueryOutput {
    /// XQuery serialization of the result sequence.
    pub fn to_xml(&self) -> String {
        serialize_sequence(&self.items)
    }
}

/// A thin convenience wrapper: a mutable document registry over the
/// immutable [`Catalog`] + [`Executor`] split.
///
/// Loading a document builds a *new* catalog snapshot and swaps in a
/// fresh executor (which also invalidates the plan cache — plans compile
/// against one catalog's name pool). The read-only query path
/// (`prepare` / `execute` / `query*`) takes `&self`: hand
/// [`catalog`](Self::catalog) or a clone of [`executor`](Self::executor)
/// to other threads to run queries concurrently.
pub struct Session {
    executor: Executor,
    /// Plan-cache capacity carried across catalog swaps (each
    /// `load_document` builds a fresh executor).
    cache_capacity: usize,
    /// Failpoints armed on the document resolver (the `doc-parse` hook);
    /// plan-evaluation failpoints travel with [`QueryOptions`] instead.
    failpoints: Failpoints,
    /// Documents loaded so far — the deterministic counter behind the
    /// `doc-parse` failpoint.
    loads: usize,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Empty session.
    pub fn new() -> Self {
        Session {
            executor: Executor::new(Arc::new(Catalog::new())),
            cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            failpoints: Failpoints::none(),
            loads: 0,
        }
    }

    /// Cap the plan cache at `capacity` prepared plans (minimum 1). The
    /// current cache is rebuilt empty, and executors created by later
    /// document loads inherit the capacity.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.cache_capacity = capacity.max(1);
        self.executor =
            Executor::with_cache_capacity(Arc::clone(self.executor.catalog()), self.cache_capacity);
    }

    /// Parse and register `xml` under `url` (the name `fn:doc()` uses).
    ///
    /// The document is parsed into a staging catalog builder and the
    /// session's executor is swapped only on success, so a failed
    /// (re)load leaves the previous catalog — including any document
    /// previously registered under `url` — fully intact.
    ///
    /// ```
    /// let mut s = exrquy::Session::new();
    /// s.load_document("d.xml", "<r><x/></r>").unwrap();
    /// assert_eq!(s.query(r#"fn:count(doc("d.xml")//x)"#).unwrap().to_xml(), "1");
    /// ```
    pub fn load_document(&mut self, url: &str, xml: &str) -> Result<(), Error> {
        let mut builder = self.executor.catalog().to_builder();
        self.stage(&mut builder, url, xml)?;
        self.swap(builder);
        Ok(())
    }

    /// Parse `xml` into `builder` under `url`: every load path of the
    /// session goes through here. Each call is one load for the
    /// `doc-parse` failpoint.
    fn stage(&mut self, builder: &mut CatalogBuilder, url: &str, xml: &str) -> Result<(), Error> {
        self.loads += 1;
        if self.failpoints.doc_parse_fails(self.loads) {
            return Err(Error::Xml(
                ParseError {
                    offset: 0,
                    message: format!(
                        "document content is not well-formed (injected at load {})",
                        self.loads
                    ),
                    code: ErrorCode::FODC0006,
                    source: None,
                }
                .with_source(url),
            ));
        }
        builder
            .load_str(url, xml)
            .map_err(|e| Error::Xml(e.with_source(url)))?;
        Ok(())
    }

    /// Publish `builder` as the new catalog snapshot behind a fresh
    /// executor (which drops the plan cache).
    fn swap(&mut self, builder: CatalogBuilder) {
        self.executor =
            Executor::with_cache_capacity(Arc::new(builder.build()), self.cache_capacity);
    }

    /// Re-partition the catalog into `n` shards (contiguous, ascending
    /// fragment ranges; clamped to at least 1). Swaps in a fresh executor
    /// — the shard layout is baked into compiled `collection()` plans, so
    /// the plan cache must not survive a re-partitioning.
    pub fn set_shards(&mut self, n: usize) {
        let mut builder = self.executor.catalog().to_builder();
        builder.set_shards(n);
        self.swap(builder);
    }

    /// Parse and register a document corpus and partition it into
    /// `shards` in a single catalog swap (one snapshot, one plan-cache
    /// invalidation — not one per document). All or nothing: the first
    /// malformed document fails the call and the previous catalog stays
    /// in place, untouched.
    ///
    /// ```
    /// let mut s = exrquy::Session::new();
    /// s.load_corpus_sharded([("a.xml", "<r><x/></r>"), ("b.xml", "<r/>")], 2)
    ///     .unwrap();
    /// assert_eq!(s.query("fn:count(fn:collection()//x)").unwrap().to_xml(), "1");
    /// ```
    pub fn load_corpus_sharded<'a>(
        &mut self,
        docs: impl IntoIterator<Item = (&'a str, &'a str)>,
        shards: usize,
    ) -> Result<(), Error> {
        let mut builder = self.executor.catalog().to_builder();
        for (url, xml) in docs {
            self.stage(&mut builder, url, xml)?;
        }
        builder.set_shards(shards);
        self.swap(builder);
        Ok(())
    }

    /// Arm failpoints on the session's document resolver (the `doc-parse`
    /// hook fires per document in [`load_document`](Self::load_document)
    /// and [`load_corpus_sharded`](Self::load_corpus_sharded)). Failpoints
    /// for plan evaluation travel with [`QueryOptions::failpoints`]
    /// instead, so the oracle can arm each arm independently.
    pub fn set_failpoints(&mut self, failpoints: Failpoints) {
        self.failpoints = failpoints;
    }

    /// Number of nodes across loaded documents.
    pub fn store_nodes(&self) -> usize {
        self.executor.catalog().total_nodes()
    }

    /// Number of shards in the catalog's current partitioning (1 unless
    /// [`set_shards`](Self::set_shards) asked for more).
    pub fn shard_count(&self) -> usize {
        self.executor.catalog().shard_count()
    }

    /// The current catalog snapshot. Clone the `Arc` to share the loaded
    /// documents with other threads; later `load_document` calls build
    /// new snapshots and never disturb outstanding clones.
    pub fn catalog(&self) -> &Arc<Catalog> {
        self.executor.catalog()
    }

    /// The executor bound to the current catalog snapshot. Cloning it
    /// shares the plan cache.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Plan-cache counters of the current executor (reset on document
    /// loads, which invalidate the cache wholesale).
    pub fn cache_stats(&self) -> CacheStats {
        self.executor.cache_stats()
    }

    /// Parse, normalize, compile and optimize `query` without executing.
    ///
    /// Plans are cached per (query text, options fingerprint): preparing
    /// the same query with equal options again returns the same
    /// `Arc<Prepared>`. A [`Prepared`] plan can be executed repeatedly
    /// and inspected:
    ///
    /// ```
    /// use exrquy::{QueryOptions, Session};
    /// let mut s = Session::new();
    /// s.load_document("d.xml", "<r><x/><x/></r>").unwrap();
    /// let plan = s
    ///     .prepare(r#"fn:count(doc("d.xml")//x)"#, &QueryOptions::order_indifferent())
    ///     .unwrap();
    /// // The paper's machinery at work: the optimized plan carries no
    /// // order-materializing % operators for this aggregate query.
    /// assert_eq!(plan.stats_final.rownums(), 0);
    /// for _ in 0..2 {
    ///     assert_eq!(s.execute(&plan).unwrap().to_xml(), "2");
    /// }
    /// ```
    pub fn prepare(&self, query: &str, opts: &QueryOptions) -> Result<Arc<Prepared>, Error> {
        self.executor.prepare(query, opts)
    }

    /// Execute a prepared plan. Fragments constructed during evaluation
    /// live in a per-execution overlay arena and are released with it
    /// (results are serialized eagerly) — the shared catalog is never
    /// touched, even when execution fails mid-plan.
    pub fn execute(&self, plan: &Prepared) -> Result<QueryOutput, Error> {
        self.executor.execute(plan)
    }

    /// Execute a prepared plan under per-run overrides (deadline,
    /// cancellation token, failpoints) — see
    /// [`Executor::execute_with`](crate::Executor::execute_with).
    pub fn execute_with(
        &self,
        plan: &Prepared,
        run: &crate::executor::RunOptions,
    ) -> Result<QueryOutput, Error> {
        self.executor.execute_with(plan, run)
    }

    /// One-shot: prepare + execute with the given options.
    ///
    /// ```
    /// use exrquy::{QueryOptions, Session};
    /// let mut s = Session::new();
    /// s.load_document("t.xml", "<a><b><c/><d/></b><c/></a>").unwrap();
    /// // The paper's Expression (1) under the order-aware baseline:
    /// let out = s
    ///     .query_with(r#"doc("t.xml")//(c|d)"#, &QueryOptions::baseline())
    ///     .unwrap();
    /// assert_eq!(out.to_xml(), "<c/><d/><c/>"); // document order
    /// ```
    pub fn query_with(&self, query: &str, opts: &QueryOptions) -> Result<QueryOutput, Error> {
        let plan = self.prepare(query, opts)?;
        self.execute(&plan)
    }

    /// One-shot with the spec-faithful default options (prolog honored,
    /// order indifference exploited).
    pub fn query(&self, query: &str) -> Result<QueryOutput, Error> {
        self.query_with(query, &QueryOptions::honor_prolog())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        let mut s = Session::new();
        s.load_document("t.xml", "<a><b><c/><d/></b><c/></a>")
            .unwrap();
        s
    }

    #[test]
    fn literal_queries() {
        let s = Session::new();
        assert_eq!(s.query("1 + 2").unwrap().to_xml(), "3");
        assert_eq!(s.query("(1, 2, 3)").unwrap().to_xml(), "1 2 3");
        assert_eq!(s.query("\"hi\"").unwrap().to_xml(), "hi");
        assert_eq!(s.query("()").unwrap().to_xml(), "");
    }

    #[test]
    fn paths_in_document_order() {
        let s = session();
        // The paper's Expression (1): document order c1, d, c2.
        let out = s
            .query_with(r#"doc("t.xml")//(c|d)"#, &QueryOptions::baseline())
            .unwrap();
        assert_eq!(out.to_xml(), "<c/><d/><c/>");
    }

    #[test]
    fn unordered_mode_preserves_multiset() {
        let s = session();
        let q = r#"doc("t.xml")//(c|d)"#;
        let ordered = s.query_with(q, &QueryOptions::baseline()).unwrap();
        let unordered = s.query_with(q, &QueryOptions::order_indifferent()).unwrap();
        let mut a: Vec<String> = ordered.items.iter().map(|i| i.render()).collect();
        let mut b: Vec<String> = unordered.items.iter().map(|i| i.render()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn flwor_and_constructors() {
        let s = Session::new();
        // The paper's Expression (4).
        let out = s
            .query_with(
                r#"for $x at $p in ("a","b","c") return <e pos="{ $p }">{ $x }</e>"#,
                &QueryOptions::baseline(),
            )
            .unwrap();
        assert_eq!(
            out.to_xml(),
            r#"<e pos="1">a</e><e pos="2">b</e><e pos="3">c</e>"#
        );
    }

    #[test]
    fn count_exists_empty() {
        let s = session();
        assert_eq!(
            s.query(r#"fn:count(doc("t.xml")//c)"#).unwrap().to_xml(),
            "2"
        );
        assert_eq!(
            s.query(r#"fn:exists(doc("t.xml")//z)"#).unwrap().to_xml(),
            "false"
        );
        assert_eq!(
            s.query(r#"fn:empty(doc("t.xml")//z)"#).unwrap().to_xml(),
            "true"
        );
    }

    #[test]
    fn plan_stats_shrink_under_optimization() {
        let s = session();
        let q = r#"fn:count(doc("t.xml")//c)"#;
        let plan = s.prepare(q, &QueryOptions::order_indifferent()).unwrap();
        assert!(plan.stats_final.total < plan.stats_initial.total);
        assert_eq!(plan.stats_final.rownums(), 0, "{}", plan.plan_text());
    }

    #[test]
    fn execute_with_deadline_sheds_and_keeps_the_cache_hot() {
        use crate::executor::RunOptions;
        use std::time::{Duration, Instant};

        let s = session();
        let opts = QueryOptions::order_indifferent();
        let q = r#"fn:count(doc("t.xml")//c)"#;
        let plan = s.prepare(q, &opts).unwrap();

        // An already-expired deadline sheds before evaluation starts.
        let run = RunOptions {
            deadline: Some(Instant::now()),
            ..RunOptions::default()
        };
        let err = s.execute_with(&plan, &run).unwrap_err();
        assert_eq!(err.code(), ErrorCode::EXRQ0007);

        // A generous deadline plus a run-level cancel token executes fine
        // — and because the token travels with the run, not the options,
        // the plan cache still answers the prepare.
        let run = RunOptions::with_deadline_in(Duration::from_secs(60))
            .with_cancel(CancellationToken::new());
        assert_eq!(s.execute_with(&plan, &run).unwrap().to_xml(), "2");
        let again = s.prepare(q, &opts).unwrap();
        assert!(
            Arc::ptr_eq(&plan, &again),
            "run overrides must not defeat the cache"
        );

        // A pre-cancelled run-level token stops the run with EXRQ0002.
        let t = CancellationToken::new();
        t.cancel();
        let err = s
            .execute_with(&plan, &RunOptions::default().with_cancel(t))
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::EXRQ0002);
    }

    #[test]
    fn collection_scans_sharded_catalogs() {
        let docs: Vec<(String, String)> = (0..5)
            .map(|i| (format!("d{i}.xml"), format!("<r><x>{i}</x></r>")))
            .collect();
        // Unsharded eager baseline.
        let mut base = Session::new();
        for (url, xml) in &docs {
            base.load_document(url, xml).unwrap();
        }
        let expect = base.query("fn:collection()//x").unwrap().to_xml();
        assert_eq!(expect, "<x>0</x><x>1</x><x>2</x><x>3</x><x>4</x>");

        // Sharded: the serialization is byte-identical across shard
        // counts and engine paths.
        for shards in [1, 2, 8] {
            let mut s = Session::new();
            s.load_corpus_sharded(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())), shards)
                .unwrap();
            assert_eq!(s.store_nodes(), base.store_nodes());
            for vectorized in [true, false] {
                let opts = QueryOptions::order_indifferent().with_vectorized(vectorized);
                let out = s.query_with("fn:collection()//x", &opts).unwrap();
                assert_eq!(out.to_xml(), expect, "shards={shards} vec={vectorized}");
            }
            // Documents also stay addressable by name.
            assert_eq!(
                s.query(r#"fn:count(doc("d3.xml")//x)"#).unwrap().to_xml(),
                "1"
            );
        }
    }

    #[test]
    fn shard_layout_feeds_the_plan_cache_key() {
        let docs: Vec<(String, String)> = (0..4)
            .map(|i| (format!("d{i}.xml"), format!("<r><x>{i}</x></r>")))
            .collect();
        let mut s = Session::new();
        s.load_corpus_sharded(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())), 2)
            .unwrap();
        let opts = QueryOptions::order_indifferent();
        let two = s.prepare("fn:collection()//x", &opts).unwrap();
        // Re-partitioning swaps the executor, so even an identical query
        // text compiles fresh plans with the new fanout ranges.
        s.set_shards(4);
        let four = s.prepare("fn:collection()//x", &opts).unwrap();
        assert!(!Arc::ptr_eq(&two, &four));
        let fanouts = |p: &Prepared| {
            p.dag
                .reachable(p.root)
                .into_iter()
                .filter(|id| matches!(p.dag.op(*id), exrquy_algebra::Op::Fanout { .. }))
                .count()
        };
        assert_eq!(fanouts(&two), 2);
        assert_eq!(fanouts(&four), 4);
    }

    #[test]
    fn constructed_fragments_stay_out_of_the_catalog() {
        let s = session();
        let before = (s.catalog().frag_count(), s.store_nodes());
        let _ = s
            .query(r#"for $c in doc("t.xml")//c return <e>{ $c }</e>"#)
            .unwrap();
        assert_eq!((s.catalog().frag_count(), s.store_nodes()), before);
    }
}
