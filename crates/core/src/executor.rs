//! The per-catalog query executor: compile + optimize + evaluate over an
//! immutable, shareable [`Catalog`] snapshot, with a plan cache.
//!
//! An [`Executor`] owns no mutable document state. Every execution
//! evaluates into a private [`FragArena`] overlay, so any number of
//! executions — across threads — may run concurrently against the same
//! `Arc<Catalog>`. Cloning an executor is cheap and shares both the
//! catalog and the plan cache.

use crate::result::ResultItem;
use crate::session::{Error, NodeCounts, Prepared, QueryOptions, QueryOutput};
use exrquy_algebra::{Col, PlanStats};
use exrquy_compiler::{CompiledPlan, Compiler};
use exrquy_diag::{CancellationToken, ErrorCode, Failpoints};
use exrquy_engine::{Engine, EngineOptions, EvalError, Item};
use exrquy_frontend::{check_depth, normalize_opts, parse_module_with};
use exrquy_opt::try_optimize_with;
use exrquy_xml::{serialize, Catalog, FragArena, NodeRead};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// The thread-safety contract of the pipeline, checked at compile time:
// catalogs are shared across threads, prepared plans are executed from
// many threads at once, executors are cloned into worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Catalog>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<Executor>();
};

/// Plan-cache counters (monotonic over the executor's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `prepare` calls answered from the cache.
    pub hits: u64,
    /// `prepare` calls that compiled and populated the cache.
    pub misses: u64,
    /// `prepare` calls that bypassed the cache (options carrying
    /// run-specific state: a cancellation token or armed failpoints).
    pub uncacheable: u64,
    /// Plans evicted to keep the cache within its capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over cacheable lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default plan-cache capacity (prepared plans per catalog snapshot).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// Hashed (query text, options fingerprint) → shared prepared plan,
/// bounded by LRU eviction.
///
/// Internal to [`Executor`]; `Mutex` + atomics rather than anything
/// fancier because preparation dominates the lock hold time by orders of
/// magnitude and contention is per-catalog. Recency is a monotone stamp
/// refreshed on every hit; insertion past capacity evicts the
/// least-recently-used entry (outstanding `Arc<Prepared>` handles stay
/// valid — eviction only drops the cache's reference).
#[derive(Debug)]
struct PlanCache {
    plans: Mutex<HashMap<u64, (Arc<Prepared>, u64)>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    uncacheable: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            plans: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    // The cache lock recovers from poisoning rather than propagating it:
    // the map is structurally valid after any interrupted operation
    // (worst case a stale LRU stamp), and with request panics contained
    // by the serving layer, one crashed request must not wedge the
    // cache for every later request.
    fn get(&self, key: u64) -> Option<Arc<Prepared>> {
        let mut plans = self
            .plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (plan, stamp) = plans.get_mut(&key)?;
        *stamp = self.stamp();
        Some(Arc::clone(plan))
    }

    fn insert(&self, key: u64, plan: Arc<Prepared>) {
        let mut plans = self
            .plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        plans.insert(key, (plan, self.stamp()));
        while plans.len() > self.capacity {
            let oldest = plans
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty cache over capacity");
            plans.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Everything that changes the compiled plan must feed the cache key;
/// two option sets with equal fingerprints must prepare identical plans.
/// `layout` is the catalog's shard-layout signature: `collection()`
/// compiles to per-shard fanouts whose fragment ranges are baked into the
/// plan, so two catalogs with different layouts must never share a cached
/// plan even when their query text and options agree.
fn fingerprint(query: &str, opts: &QueryOptions, layout: u64) -> u64 {
    let mut h = DefaultHasher::new();
    layout.hash(&mut h);
    query.hash(&mut h);
    opts.exploit.hash(&mut h);
    opts.ordering.hash(&mut h);
    opts.opt.hash(&mut h);
    opts.budget.hash(&mut h);
    opts.threads.hash(&mut h);
    opts.vectorized.hash(&mut h);
    h.finish()
}

/// Run-time overrides for one execution of a prepared plan.
///
/// Everything here is *execution* state, deliberately kept out of
/// [`QueryOptions`] and the plan-cache fingerprint: a serving layer
/// prepares a query once with cacheable options and then executes it many
/// times, each run carrying its own deadline, cancellation token, and
/// failpoint registry. This is what keeps the plan cache hot under
/// per-request deadlines — options-borne cancel tokens bypass the cache,
/// run-borne ones do not.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Absolute deadline for this run. Checked before evaluation starts
    /// (a request already past its deadline is shed without running) and
    /// polled at every operator boundary; trips as
    /// [`ErrorCode::EXRQ0007`].
    pub deadline: Option<Instant>,
    /// Cancellation token for this run; overrides any token the plan was
    /// prepared with.
    pub cancel: Option<CancellationToken>,
    /// Failpoints for this run; overrides the plan's registry when set.
    pub failpoints: Option<Failpoints>,
    /// Shared memory gauge for the serving layer's watermark governor:
    /// the engine publishes this run's approximate constructed-node
    /// bytes into it while the run is in flight.
    pub gauge: Option<exrquy_diag::MemoryGauge>,
}

impl RunOptions {
    /// Overrides carrying a deadline `timeout` from now, typically from a
    /// CLI `--deadline-ms` or a request's `deadline_ms` field.
    pub fn with_deadline_in(timeout: std::time::Duration) -> Self {
        RunOptions {
            deadline: Some(Instant::now() + timeout),
            ..RunOptions::default()
        }
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, cancel: CancellationToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Has the deadline already passed?
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
    }
}

/// A query pipeline bound to one immutable catalog snapshot.
#[derive(Debug, Clone)]
pub struct Executor {
    catalog: Arc<Catalog>,
    cache: Arc<PlanCache>,
}

impl Executor {
    /// Executor over `catalog` with a fresh plan cache of the default
    /// capacity ([`DEFAULT_PLAN_CACHE_CAPACITY`]).
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::with_cache_capacity(catalog, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Executor with an explicit plan-cache capacity (plans; minimum 1).
    pub fn with_cache_capacity(catalog: Arc<Catalog>, capacity: usize) -> Self {
        Executor {
            catalog,
            cache: Arc::new(PlanCache::with_capacity(capacity)),
        }
    }

    /// The catalog this executor reads.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Parse, normalize, compile and optimize `query` without executing,
    /// consulting the plan cache first. Plans prepared with a cancellation
    /// token or armed failpoints carry run-specific state and bypass the
    /// cache.
    pub fn prepare(&self, query: &str, opts: &QueryOptions) -> Result<Arc<Prepared>, Error> {
        if opts.cancel.is_some() || !opts.failpoints.is_empty() {
            self.cache.uncacheable.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(self.compile(query, opts)?));
        }
        let key = fingerprint(query, opts, self.catalog.layout_signature());
        if let Some(plan) = self.cache.get(key) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        let plan = Arc::new(self.compile(query, opts)?);
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    fn compile(&self, query: &str, opts: &QueryOptions) -> Result<Prepared, Error> {
        let max_depth = opts
            .budget
            .max_depth
            .unwrap_or(exrquy_frontend::DEFAULT_MAX_DEPTH);
        let mut module = parse_module_with(query, max_depth).map_err(Error::Parse)?;
        if let Some(mode) = opts.ordering {
            module.ordering = mode;
        }
        let effective_ordering = module.ordering;
        let module = normalize_opts(&module, opts.exploit);
        // Normalization wraps expressions (fn:unordered, comparisons), so
        // re-check the AST depth with a little headroom; this also guards
        // modules built programmatically rather than parsed.
        check_depth(&module, max_depth.saturating_add(16)).map_err(Error::Parse)?;
        let CompiledPlan {
            mut dag,
            root,
            names,
        } = Compiler::new(&self.catalog)
            .compile_module(&module)
            .map_err(Error::Compile)?;
        let stats_initial = PlanStats::of(&dag, root);
        let (root, opt_report) =
            try_optimize_with(&mut dag, root, &opts.opt, opts.failpoints.perturbed_rule())
                .map_err(Error::Opt)?;
        // Cost-based pass: join-order enumeration over catalog
        // statistics. Every plan it picks serializes byte-identically to
        // the canonical plan; `--no-cost` (rule `cost-join-reorder`
        // disabled) keeps the rule-only planner, in which case only the
        // cardinality estimates are computed (for explain).
        let cost_ctx = exrquy_opt::CostContext {
            stats: Some(self.catalog.stats()),
            perturb: opts.failpoints.perturbed_stats(),
        };
        let (root, cost_report) =
            exrquy_opt::cost_optimize(&mut dag, root, &opts.opt, &cost_ctx).map_err(Error::Opt)?;
        let stats_final = PlanStats::of(&dag, root);
        // Lower once: executions run the flattened program directly. The
        // scalar reference arm is the unfused lowering.
        let phys = exrquy_algebra::lower(&dag, root, opts.vectorized);
        Ok(Prepared {
            dag,
            root,
            phys,
            vectorized: opts.vectorized,
            stats_initial,
            stats_final,
            opt_report,
            cost_report,
            names,
            budget: opts.budget.clone(),
            cancel: opts.cancel.clone(),
            failpoints: opts.failpoints.clone(),
            threads: opts.threads,
            ordering: effective_ordering,
        })
    }

    /// Execute a prepared plan. Evaluation writes into a fresh per-call
    /// [`FragArena`] overlay, so the catalog is untouched whether the
    /// query succeeds, trips a budget, or is cancelled — the rollback the
    /// old mutable store needed is now structural.
    pub fn execute(&self, plan: &Prepared) -> Result<QueryOutput, Error> {
        self.execute_with(plan, &RunOptions::default())
    }

    /// Execute a prepared plan under per-run overrides (deadline,
    /// cancellation, failpoints). The single deadline code path shared by
    /// `xq --deadline-ms` and the `xqd` serving daemon: a run past its
    /// deadline is shed with [`ErrorCode::EXRQ0007`] *before* evaluation,
    /// and an in-flight run trips the same code at the next operator
    /// boundary.
    pub fn execute_with(&self, plan: &Prepared, run: &RunOptions) -> Result<QueryOutput, Error> {
        if run.expired() {
            return Err(Error::Eval(EvalError::new(
                ErrorCode::EXRQ0007,
                "request deadline exceeded before execution started",
            )));
        }
        let engine_opts = EngineOptions {
            budget: plan.budget.clone(),
            cancel: run.cancel.clone().or_else(|| plan.cancel.clone()),
            failpoints: run
                .failpoints
                .clone()
                .unwrap_or_else(|| plan.failpoints.clone()),
            threads: plan.threads,
            scalar: !plan.vectorized,
            deadline: run.deadline,
            gauge: run.gauge.clone(),
        };
        let mut arena = FragArena::with_names(Arc::clone(&self.catalog), Arc::clone(&plan.names));
        let mut engine = Engine::new(&plan.dag, &mut arena, engine_opts);
        let result = engine.eval_plan(&plan.phys).map_err(Error::Eval)?;
        // Rows in pos order; pos values need not be dense or start at 1 —
        // only their ranks matter.
        let pos = result.col(Col::POS);
        let item = result.col(Col::ITEM);
        let mut order: Vec<usize> = (0..result.nrows()).collect();
        // `pos` is integral in every plan the compiler emits; the typed
        // sort key skips per-comparison `Item` construction.
        match pos.to_int_vec() {
            Ok(keys) => order.sort_by_key(|&a| keys[a]),
            Err(_) => order.sort_by(|&a, &b| pos.get(a).sort_cmp(&pos.get(b))),
        }
        let profile = engine.profile.clone();
        drop(engine);
        let mut nodes = NodeCounts {
            constructed: arena.constructed_nodes(),
            fragments: arena.overlay_frags(),
            result: 0,
        };
        let items = order
            .into_iter()
            .map(|r| match item.get(r) {
                Item::Node(n) => {
                    nodes.result += arena.doc_of(n).size(n.pre) as usize + 1;
                    ResultItem::Node(serialize::node_to_string(&arena, n))
                }
                Item::Int(i) => ResultItem::Int(i),
                Item::Dbl(d) => ResultItem::Dbl(d),
                Item::Str(s) => ResultItem::Str(s.to_string()),
                Item::Bool(b) => ResultItem::Bool(b),
            })
            .collect();
        Ok(QueryOutput {
            items,
            profile,
            nodes,
        })
    }
}
