//! Statistics-driven cost-based planning: cardinality estimation and join
//! graph isolation where no one observes the join order.
//!
//! This pass runs *after* the rule rewriter ([`crate::try_optimize_with`])
//! and never changes what a plan returns — only how it is shaped:
//!
//! 1. **Cardinality estimation** ([`estimate_cardinalities`]) walks the
//!    plan bottom-up deriving an estimated row count per operator from the
//!    catalog's [`CatalogStats`] (element/attribute histograms, fanout,
//!    node and fragment counts). Estimates feed the enumerator below and
//!    the `--explain` estimated-vs-actual table.
//!
//! 2. **Join graph isolation + reordering** (`cost-join-reorder`): a
//!    maximal cluster of equi-/theta-joins and cross products (with the
//!    interleaved projections the FLWOR compiler emits) is detached from
//!    the order-maintenance spine and its join order re-enumerated against
//!    the cardinality model (exact DP over bitmasks up to 8 relations;
//!    larger clusters keep their canonical order). A cheaper order is
//!    grafted back only where `order_unobserved` proves that the
//!    downstream cone cannot observe the cluster's row order — the
//!    paper's order-indifference condition, decided by a conservative
//!    column-taint and order-influence abstract interpretation. The
//!    rebuilt tree emits the canonical tree's rows in another order and a
//!    final projection restores the cluster root's schema, so the result
//!    stays byte-identical; every other cluster keeps its canonical tree.
//!    The one column fact the walk needs — a grouping column is constant,
//!    so the aggregate has one group — is [`ColProp::Const`] from
//!    [`props::properties`], the rewriter's own analysis, computed once
//!    per plan and only when some reorder wins. It proves a constant
//!    through `∪̇` when both parts agree.
//!
//! The rewrite honors [`OptOptions::disabled_rules`] and records
//! [`RuleApplication`]s so the differential attribution pass of
//! `exrquy-verify` can bisect a divergence to a single named rule —
//! exactly as for the rule rewriter. The
//! `stats-perturb:<factor>` failpoint deterministically corrupts estimates
//! (even operator ids are multiplied by the factor, odd ones divided),
//! which may change which plan wins but never what it returns.

use crate::props::{self, ColProp, PropMap};
use crate::rewrite::{OptError, OptOptions, RuleApplication};
use exrquy_algebra::{AggrKind, Col, Dag, FunKind, Op, OpId};
use exrquy_xml::{Axis, CatalogStats, NodeTest};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Everything the cost model knows beyond the plan itself.
#[derive(Clone, Default)]
pub struct CostContext {
    /// Frozen statistics of the catalog snapshot the plan will run
    /// against; `None` reads as an empty catalog's
    /// (`CatalogStats::default()`).
    pub stats: Option<Arc<CatalogStats>>,
    /// `stats-perturb:<factor>` failpoint: deterministically corrupt every
    /// estimate (even `OpId` → ×factor, odd → ÷factor). Plan choice may
    /// change; serialized results must not.
    pub perturb: Option<f64>,
}

/// Outcome of one [`cost_optimize`] run.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    /// Estimated output rows per operator of the *final* plan.
    pub estimates: HashMap<OpId, f64>,
    /// Join clusters examined.
    pub clusters: usize,
    /// Join clusters actually rebuilt in a cheaper order.
    pub reordered: usize,
    /// Always equal to `reordered`: a cluster is rebuilt only where its
    /// row order is unobserved, so no rebuild pays an order-restoring
    /// compensation. Kept because the benchmark ledger reports it as
    /// `opt.ranks_elided`.
    pub elided: usize,
    /// Every cost rewrite, in firing order (same shape as the rule
    /// rewriter's trace).
    pub trace: Vec<RuleApplication>,
}

/// Run the cost-based pass over an already rule-optimized plan. With
/// `cost-join-reorder` disabled the plan is returned unchanged, but
/// estimates are still computed so `--explain` can show them for the
/// rule-only plan.
pub fn cost_optimize(
    dag: &mut Dag,
    root: OpId,
    opts: &OptOptions,
    ctx: &CostContext,
) -> Result<(OpId, CostReport), OptError> {
    let mut report = CostReport::default();
    let mut cur = root;
    if !opts.disabled_rules.contains("cost-join-reorder") {
        cur = reorder_joins(dag, cur, ctx, &mut report)?;
    }
    report.estimates = estimate_cardinalities(dag, cur, ctx);
    Ok((cur, report))
}

// ---------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------

/// Estimated output rows for every operator reachable from `root`.
pub fn estimate_cardinalities(dag: &Dag, root: OpId, ctx: &CostContext) -> HashMap<OpId, f64> {
    let keys = props::keys(dag, root);
    let empty = CatalogStats::default();
    let stats = ctx.stats.as_deref().unwrap_or(&empty);
    let mut est: HashMap<OpId, f64> = HashMap::new();
    for id in dag.topo_order(root) {
        let of = |c: OpId, est: &HashMap<OpId, f64>| est.get(&c).copied().unwrap_or(1.0);
        let op = dag.op(id);
        let mut e = match op {
            Op::Lit { rows, .. } => rows.len() as f64,
            Op::Doc { .. } => 1.0,
            Op::Collection => stats.frags as f64,
            Op::Select { input, .. } => of(*input, &est) * 0.33,
            Op::Project { input, .. }
            | Op::RowNum { input, .. }
            | Op::RowId { input, .. }
            | Op::Attach { input, .. }
            | Op::Fun { input, .. }
            | Op::Serialize { input } => of(*input, &est),
            Op::Step { input, axis, test } => step_estimate(of(*input, &est), *axis, test, stats),
            Op::Distinct { input } => of(*input, &est) * 0.9,
            Op::Aggr { input, part, .. } => {
                if part.is_some() {
                    (of(*input, &est) * 0.1).max(1.0)
                } else {
                    1.0
                }
            }
            Op::Range { input, .. } => of(*input, &est) * 4.0,
            Op::Cross { l, r } => of(*l, &est) * of(*r, &est),
            Op::EquiJoin { l, r, lcol, rcol } => {
                let (lc, rc) = (of(*l, &est), of(*r, &est));
                lc * rc * eq_selectivity(lc, rc, key_of(&keys, *l, *lcol), key_of(&keys, *r, *rcol))
            }
            Op::ThetaJoin { l, r, pred } => {
                let (lc, rc) = (of(*l, &est), of(*r, &est));
                let mut sel = 1.0;
                for (pc, kind, qc) in pred {
                    sel *= match kind {
                        FunKind::Eq => {
                            eq_selectivity(lc, rc, key_of(&keys, *l, *pc), key_of(&keys, *r, *qc))
                        }
                        FunKind::Ne => 0.9,
                        _ => 0.3, // band comparison
                    };
                }
                lc * rc * sel
            }
            Op::Union { l, r } => of(*l, &est) + of(*r, &est),
            Op::Difference { l, .. } => of(*l, &est),
            Op::Element { iters, .. } => of(*iters, &est),
            Op::Attr { names, .. } => of(*names, &est),
            Op::TextNode { content } => of(*content, &est),
        };
        if let Some(f) = ctx.perturb {
            let f = f.abs().max(1e-6);
            e = if id.0 % 2 == 0 { e * f } else { e / f };
        }
        est.insert(id, e.clamp(1e-3, f64::MAX));
    }
    est
}

/// Is `col` inferred globally unique at `id`?
fn key_of(keys: &props::KeyMap, id: OpId, col: Col) -> bool {
    keys.get(&id).is_some_and(|k| k.contains(&col))
}

/// Equi-predicate selectivity `1 / max(ndv_l, ndv_r)`: a key column's
/// distinct count is its cardinality, a non-key's the square root of it
/// (the classic "half the information" guess).
fn eq_selectivity(lcard: f64, rcard: f64, lkey: bool, rkey: bool) -> f64 {
    let ndv_l = if lkey { lcard } else { lcard.sqrt() };
    let ndv_r = if rkey { rcard } else { rcard.sqrt() };
    1.0 / ndv_l.max(ndv_r).max(1.0)
}

/// Per-context-node yield of one location step, from catalog statistics.
fn step_estimate(input: f64, axis: Axis, test: &NodeTest, s: &CatalogStats) -> f64 {
    let frags = s.frags.max(1) as f64;
    let elements = s.elements.max(1) as f64;
    let per = match axis {
        Axis::Descendant | Axis::DescendantOrSelf => match test {
            NodeTest::Name(n) => s.elem_count(*n) as f64 / frags,
            _ => s.total_nodes as f64 / frags,
        },
        Axis::Child => match test {
            NodeTest::Name(n) => s.avg_fanout * (s.elem_count(*n) as f64 / elements),
            _ => s.avg_fanout,
        },
        Axis::Attribute => match test {
            NodeTest::Name(n) => (s.attr_count(*n) as f64 / elements).min(1.0),
            _ => 0.8,
        },
        Axis::SelfAxis => 0.9,
        Axis::Parent => 1.0,
        _ => 4.0,
    };
    input * per.max(1e-3)
}

// ---------------------------------------------------------------------
// Join graph isolation
// ---------------------------------------------------------------------

/// Exact DP up to this many cluster leaves; larger clusters keep their
/// canonical order.
const DP_LEAVES: usize = 8;
/// A rebuilt order must beat the canonical cost by this factor — the
/// estimates are rough and a rebuild adds renaming projections, so
/// near-ties keep the canonical tree.
const REBUILD_GAIN: f64 = 0.99;

/// How one original join combined its two subtrees. Each rebuilt join
/// applies exactly one original bundle (possibly side-mirrored), with the
/// predicate list order preserved — the engine's join mechanism and match
/// semantics (`GroupKey` hashing for the first predicate, promoting value
/// comparison for residuals) therefore stay exactly those of the
/// canonical tree.
#[derive(Debug, Clone)]
enum Mechanism {
    /// `EquiJoin` on one column pair.
    Equi { l: (usize, Col), r: (usize, Col) },
    /// `ThetaJoin` on a conjunction; columns resolved to (leaf, column).
    Theta { preds: Vec<ThetaPred> },
}

/// A theta-join conjunct with both columns resolved to (leaf, column).
type ThetaPred = ((usize, Col), FunKind, (usize, Col));

/// One original join edge: its mechanism plus the leaves its predicates
/// actually reference on each side. A rebuilt join may apply the bundle
/// at any cut that puts `lneed` wholly on one side and `rneed` wholly on
/// the other — joins are cross-product-plus-filter semantically, so the
/// match set depends only on the referenced columns, not on which other
/// leaves happen to ride along.
#[derive(Debug, Clone)]
struct Bundle {
    mech: Mechanism,
    /// Leaves referenced by left-side predicate columns.
    lneed: u64,
    /// Leaves referenced by right-side predicate columns.
    rneed: u64,
}

impl Bundle {
    fn support(&self) -> u64 {
        self.lneed | self.rneed
    }
}

/// A join order: leaves at the bottom, each interior node optionally
/// applying one bundle (`None` = cross product; `bool` = mirrored).
#[derive(Debug, Clone)]
enum Tree {
    Leaf(usize),
    Join {
        l: Box<Tree>,
        r: Box<Tree>,
        bundle: Option<(usize, bool)>,
    },
}

/// One isolated join cluster, flattened.
struct Cluster {
    root: OpId,
    leaves: Vec<OpId>,
    bundles: Vec<Bundle>,
    /// Root schema columns resolved to their (leaf, leaf column) source,
    /// in root schema order.
    out: Vec<(Col, usize, Col)>,
    /// Support mask of every interior join of the canonical tree
    /// (including the root) — the canonical cost is the sum of their
    /// estimated cardinalities.
    supports: Vec<u64>,
    /// Dissolved interior operators (joins and projections).
    interiors: Vec<OpId>,
}

/// A join (or cross) the cluster walk may dissolve. Theta joins whose
/// first predicate is a band comparison stay opaque: the band kernel's
/// asymmetric mechanics are kept exactly where the canonical plan put
/// them.
fn is_cluster_join(op: &Op) -> bool {
    match op {
        Op::Cross { .. } | Op::EquiJoin { .. } => true,
        Op::ThetaJoin { pred, .. } => matches!(
            pred.first(),
            Some((_, FunKind::Eq, _)) | Some((_, FunKind::Ne, _))
        ),
        _ => false,
    }
}

/// May `id` be dissolved into the enclosing cluster? Requires a single
/// global consumer and a chain of projections bottoming at a join.
fn dissolvable(dag: &Dag, id: OpId, consumers: &HashMap<OpId, u32>) -> bool {
    if consumers.get(&id).copied().unwrap_or(0) != 1 {
        return false;
    }
    match dag.op(id) {
        op if is_cluster_join(op) => true,
        Op::Project { input, .. } => dissolvable(dag, *input, consumers),
        _ => false,
    }
}

/// Bit for leaf `i` (saturating: clusters past [`DP_LEAVES`] leaves are
/// never rebuilt, so a clamped bit never drives a rebuild).
fn leaf_bit(i: usize) -> u64 {
    1u64 << (i.min(63))
}

struct Flattener<'a> {
    dag: &'a Dag,
    consumers: &'a HashMap<OpId, u32>,
    leaves: Vec<OpId>,
    bundles: Vec<Bundle>,
    supports: Vec<u64>,
    interiors: Vec<OpId>,
}

type ColMap = HashMap<Col, (usize, Col)>;

impl Flattener<'_> {
    fn mask(&self, from: usize, to: usize) -> u64 {
        let mut m = 0u64;
        for i in from..to {
            if i < 64 {
                m |= 1 << i;
            }
        }
        m
    }

    /// Flatten the subtree at `id` (already known dissolvable, or the
    /// cluster root); returns the column provenance map at `id`.
    fn flatten(&mut self, id: OpId, is_root: bool) -> ColMap {
        if !is_root {
            self.interiors.push(id);
        }
        let op = self.dag.op(id).clone();
        match op {
            Op::Project { input, cols } => {
                let im = self.flatten(input, false);
                cols.iter()
                    .filter_map(|(new, src)| im.get(src).map(|&s| (*new, s)))
                    .collect()
            }
            Op::Cross { l, r } => self.merge_sides(id, l, r).0,
            Op::EquiJoin { l, r, lcol, rcol } => {
                let (cm, maps) = self.merge_sides(id, l, r);
                let (lm, rm) = maps;
                let (a, b) = (lm[&lcol], rm[&rcol]);
                self.bundles.push(Bundle {
                    mech: Mechanism::Equi { l: a, r: b },
                    lneed: leaf_bit(a.0),
                    rneed: leaf_bit(b.0),
                });
                cm
            }
            Op::ThetaJoin { l, r, pred } => {
                let (cm, maps) = self.merge_sides(id, l, r);
                let (lm, rm) = maps;
                let preds: Vec<ThetaPred> =
                    pred.iter().map(|(a, k, b)| (lm[a], *k, rm[b])).collect();
                let lneed = preds.iter().fold(0, |m, (a, ..)| m | leaf_bit(a.0));
                let rneed = preds.iter().fold(0, |m, (.., b)| m | leaf_bit(b.0));
                self.bundles.push(Bundle {
                    mech: Mechanism::Theta { preds },
                    lneed,
                    rneed,
                });
                cm
            }
            _ => unreachable!("flatten called on a non-interior operator"),
        }
    }

    /// Flatten or leaf both sides of a join, record the canonical
    /// intermediate's leaf set (for the canonical-cost baseline), and
    /// return the merged column map plus the per-side maps.
    fn merge_sides(&mut self, id: OpId, l: OpId, r: OpId) -> (ColMap, (ColMap, ColMap)) {
        let _ = id;
        let start = self.leaves.len();
        let lm = self.child(l);
        let rm = self.child(r);
        let end = self.leaves.len();
        self.supports.push(self.mask(start, end));
        let mut cm = lm.clone();
        cm.extend(rm.iter().map(|(c, s)| (*c, *s)));
        (cm, (lm, rm))
    }

    fn child(&mut self, id: OpId) -> ColMap {
        if dissolvable(self.dag, id, self.consumers) {
            self.flatten(id, false)
        } else {
            self.leaf(id)
        }
    }

    fn leaf(&mut self, id: OpId) -> ColMap {
        let idx = self.leaves.len();
        self.leaves.push(id);
        self.dag.schema(id).iter().map(|&c| (c, (idx, c))).collect()
    }
}

/// Global consumer counts (with multiplicity) over the plan.
fn consumer_counts(dag: &Dag, root: OpId) -> HashMap<OpId, u32> {
    let mut counts: HashMap<OpId, u32> = HashMap::new();
    for id in dag.topo_order(root) {
        for c in dag.op(id).children() {
            *counts.entry(c).or_default() += 1;
        }
    }
    counts
}

/// The cardinality model over one cluster's leaves and bundles.
struct CardModel {
    leafcard: Vec<f64>,
    sels: Vec<f64>,
    supports: Vec<u64>,
}

impl CardModel {
    fn new(cluster: &Cluster, est: &HashMap<OpId, f64>, keys: &props::KeyMap) -> Self {
        let leafcard: Vec<f64> = cluster
            .leaves
            .iter()
            .map(|l| est.get(l).copied().unwrap_or(1.0))
            .collect();
        let ndv = |(i, c): (usize, Col)| -> f64 {
            let card = leafcard[i];
            if key_of(keys, cluster.leaves[i], c) {
                card
            } else {
                card.sqrt()
            }
        };
        let sels = cluster
            .bundles
            .iter()
            .map(|b| {
                let s = match &b.mech {
                    Mechanism::Equi { l, r } => 1.0 / ndv(*l).max(ndv(*r)).max(1.0),
                    Mechanism::Theta { preds } => preds
                        .iter()
                        .map(|(l, k, r)| match k {
                            FunKind::Eq => 1.0 / ndv(*l).max(ndv(*r)).max(1.0),
                            FunKind::Ne => 0.9,
                            _ => 0.3,
                        })
                        .product(),
                };
                f64::max(s, 1e-9)
            })
            .collect();
        CardModel {
            leafcard,
            sels,
            supports: cluster.bundles.iter().map(Bundle::support).collect(),
        }
    }

    /// Estimated rows of the join of the leaf set `mask`, with every
    /// bundle whose support lies inside it applied.
    fn card(&self, mask: u64) -> f64 {
        let mut c = 1.0;
        for (i, &lc) in self.leafcard.iter().enumerate() {
            if mask & (1 << i) != 0 {
                c *= lc;
            }
        }
        for (s, &sup) in self.sels.iter().zip(&self.supports) {
            if sup & mask == sup {
                c *= s;
            }
        }
        c
    }
}

/// Bundles of `model` forced at the cut `(s1, s2)`: support inside the
/// union but astride the cut. Returns `None` (invalid cut) when more than
/// one is forced or a forced bundle's sides straddle; `Some(None)` is a
/// cross product, `Some(Some((idx, mirrored)))` the one applied bundle.
fn forced_bundle(bundles: &[Bundle], s1: u64, s2: u64) -> Option<Option<(usize, bool)>> {
    let union = s1 | s2;
    let mut found: Option<(usize, bool)> = None;
    for (i, b) in bundles.iter().enumerate() {
        let sup = b.support();
        if sup & union != sup || sup & s1 == sup || sup & s2 == sup {
            continue;
        }
        let orient = if b.lneed & s1 == b.lneed && b.rneed & s2 == b.rneed {
            (i, false)
        } else if b.lneed & s2 == b.lneed && b.rneed & s1 == b.rneed {
            (i, true)
        } else {
            return None; // one side's references straddle the cut
        };
        if found.is_some() {
            return None; // two bundles forced: cut separates both
        }
        found = Some(orient);
    }
    Some(found)
}

/// Exact dynamic program over leaf subsets (≤ [`DP_LEAVES`] leaves).
fn enumerate_dp(n: usize, bundles: &[Bundle], model: &CardModel) -> Option<(f64, Tree)> {
    let full = (1u64 << n) - 1;
    let mut dp: Vec<Option<(f64, Tree)>> = vec![None; (full + 1) as usize];
    for i in 0..n {
        dp[1 << i] = Some((0.0, Tree::Leaf(i)));
    }
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let low = mask & mask.wrapping_neg();
        let mut best: Option<(f64, Tree)> = None;
        // Enumerate proper submasks containing the lowest bit: left/right
        // assignment is symmetric in cost, the bundle orientation flag
        // covers the rest.
        let mut s1 = (mask - 1) & mask;
        while s1 > 0 {
            let s2 = mask ^ s1;
            if s1 & low != 0 {
                if let (Some((c1, t1)), Some((c2, t2))) = (&dp[s1 as usize], &dp[s2 as usize]) {
                    if let Some(bundle) = forced_bundle(bundles, s1, s2) {
                        let cost = c1 + c2 + model.card(mask);
                        if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                            best = Some((
                                cost,
                                Tree::Join {
                                    l: Box::new(t1.clone()),
                                    r: Box::new(t2.clone()),
                                    bundle,
                                },
                            ));
                        }
                    }
                }
            }
            s1 = (s1 - 1) & mask;
        }
        dp[mask as usize] = best;
    }
    dp[full as usize].take()
}

/// Post-order leaf sets of `tree`'s internal joins plus its leaf order —
/// a tree reproduces the canonical shape exactly when its leaves read
/// `0..n` left to right *and* its internal sets match the canonical
/// supports (same post-order). Guard against rebuilding an identical tree
/// just to pay for its renaming projections.
fn tree_shape(tree: &Tree, leaves: &mut Vec<usize>, internals: &mut Vec<u64>) -> u64 {
    match tree {
        Tree::Leaf(i) => {
            leaves.push(*i);
            leaf_bit(*i)
        }
        Tree::Join { l, r, .. } => {
            let m = tree_shape(l, leaves, internals) | tree_shape(r, leaves, internals);
            internals.push(m);
            m
        }
    }
}

/// The `cost-join-reorder` pass over the whole plan.
fn reorder_joins(
    dag: &mut Dag,
    root: OpId,
    ctx: &CostContext,
    report: &mut CostReport,
) -> Result<OpId, OptError> {
    let topo = dag.topo_order(root);
    let consumers = consumer_counts(dag, root);
    let keys = props::keys(dag, root);
    let est = estimate_cardinalities(dag, root, ctx);
    let mut props: Option<PropMap> = None;

    // Pass A (detection, parents first): find maximal cluster roots, pick
    // a cheaper order where one exists.
    let mut processed: HashSet<OpId> = HashSet::new();
    let mut decisions: HashMap<OpId, (Cluster, Tree)> = HashMap::new();
    for &id in topo.iter().rev() {
        if processed.contains(&id) || !is_cluster_join(dag.op(id)) {
            continue;
        }
        let mut fl = Flattener {
            dag,
            consumers: &consumers,
            leaves: Vec::new(),
            bundles: Vec::new(),
            supports: Vec::new(),
            interiors: Vec::new(),
        };
        let cm = fl.flatten(id, true);
        let cluster = Cluster {
            root: id,
            out: dag
                .schema(id)
                .iter()
                .map(|&c| {
                    let (li, lc) = cm[&c];
                    (c, li, lc)
                })
                .collect(),
            leaves: fl.leaves,
            bundles: fl.bundles,
            supports: fl.supports,
            interiors: fl.interiors,
        };
        processed.insert(id);
        processed.extend(cluster.interiors.iter().copied());
        report.clusters += 1;
        let n = cluster.leaves.len();
        if !(3..=DP_LEAVES).contains(&n) {
            continue;
        }
        let model = CardModel::new(&cluster, &est, &keys);
        let canonical: f64 = cluster.supports.iter().map(|&s| model.card(s)).sum();
        let Some((cost, tree)) = enumerate_dp(n, &cluster.bundles, &model) else {
            continue;
        };
        let (mut order, mut internals) = (Vec::new(), Vec::new());
        tree_shape(&tree, &mut order, &mut internals);
        let identity = order.iter().copied().eq(0..n) && internals == cluster.supports;
        if cost < canonical * REBUILD_GAIN && !identity {
            let props = props.get_or_insert_with(|| props::properties(dag, root));
            if order_unobserved(dag, root, id, &topo, &keys, props) {
                decisions.insert(id, (cluster, tree));
            }
        }
    }
    if decisions.is_empty() {
        return Ok(root);
    }

    // Pass B (rebuild, children first): graft each winning order back in.
    let mut memo: HashMap<OpId, OpId> = HashMap::new();
    for &id in &topo {
        if let Some((cluster, tree)) = decisions.get(&id) {
            let new = graft(dag, cluster, tree, &memo)?;
            report.reordered += 1;
            report.elided += 1;
            report.trace.push(RuleApplication {
                round: 0,
                rule: "cost-join-reorder",
                before: id,
                after: new,
            });
            memo.insert(id, new);
            continue;
        }
        let op = dag.op(id).clone();
        let mapped: Vec<OpId> = op
            .children()
            .iter()
            .map(|c| memo.get(c).copied().unwrap_or(*c))
            .collect();
        let new = if mapped == op.children() {
            id
        } else {
            dag.try_add(op.with_children(&mapped))
                .map_err(|e| opt_err("cost-join-reorder", id, dag, e.0))?
        };
        memo.insert(id, new);
    }
    let new_root = memo[&root];
    dag.validate_plan(new_root)
        .map_err(|e| opt_err("cost-join-reorder", new_root, dag, e.0))?;
    Ok(new_root)
}

fn opt_err(rule: &'static str, op: OpId, dag: &Dag, message: String) -> OptError {
    OptError {
        rule,
        op,
        kind: if (op.0 as usize) < dag.len() {
            dag.op(op).kind_name()
        } else {
            "?"
        },
        round: 0,
        message,
    }
}

/// Materialize the chosen order: rename every leaf's columns, build the
/// join tree, restore the root schema. The rebuilt tree's own emission
/// order stands — [`order_unobserved`] proved no one sees it.
fn graft(
    dag: &mut Dag,
    cluster: &Cluster,
    tree: &Tree,
    memo: &HashMap<OpId, OpId>,
) -> Result<OpId, OptError> {
    let rule = "cost-join-reorder";
    // One fresh name per leaf column, so rebuilt join schemas are
    // disjoint by construction.
    let mut fresh: HashMap<(usize, Col), Col> = HashMap::new();
    let mut bases: Vec<OpId> = Vec::with_capacity(cluster.leaves.len());
    for (i, &leaf) in cluster.leaves.iter().enumerate() {
        let input = memo.get(&leaf).copied().unwrap_or(leaf);
        let schema: Vec<Col> = dag.schema(input).to_vec();
        let mut cols: Vec<(Col, Col)> = Vec::with_capacity(schema.len());
        for &c in &schema {
            let f = dag.fresh_col();
            fresh.insert((i, c), f);
            cols.push((f, c));
        }
        let renamed = dag
            .try_add(Op::Project { input, cols })
            .map_err(|e| opt_err(rule, leaf, dag, e.0))?;
        bases.push(renamed);
    }
    let joined = build_join(dag, cluster, tree, &bases, &fresh)?;
    let cols: Vec<(Col, Col)> = cluster
        .out
        .iter()
        .map(|&(c, li, lc)| (c, fresh[&(li, lc)]))
        .collect();
    dag.try_add(Op::Project {
        input: joined,
        cols,
    })
    .map_err(|e| opt_err(rule, cluster.root, dag, e.0))
}

/// Build the rebuilt join tree bottom-up, each join in the orientation
/// the enumerator chose.
fn build_join(
    dag: &mut Dag,
    cluster: &Cluster,
    tree: &Tree,
    bases: &[OpId],
    fresh: &HashMap<(usize, Col), Col>,
) -> Result<OpId, OptError> {
    let (l, r, bundle) = match tree {
        Tree::Leaf(i) => return Ok(bases[*i]),
        Tree::Join { l, r, bundle } => (l, r, bundle),
    };
    let l = build_join(dag, cluster, l, bases, fresh)?;
    let r = build_join(dag, cluster, r, bases, fresh)?;
    let op = match bundle {
        None => Op::Cross { l, r },
        Some((bi, mirrored)) => match &cluster.bundles[*bi].mech {
            Mechanism::Equi { l: a, r: b } => {
                let (a, b) = if *mirrored { (b, a) } else { (a, b) };
                Op::EquiJoin {
                    l,
                    r,
                    lcol: fresh[a],
                    rcol: fresh[b],
                }
            }
            Mechanism::Theta { preds } => {
                let pred = preds
                    .iter()
                    .map(|(a, k, b)| {
                        if *mirrored {
                            (fresh[b], k.mirror(), fresh[a])
                        } else {
                            (fresh[a], *k, fresh[b])
                        }
                    })
                    .collect();
                Op::ThetaJoin { l, r, pred }
            }
        },
    };
    dag.try_add(op)
        .map_err(|e| opt_err("cost-join-reorder", cluster.root, dag, e.0))
}

// ---------------------------------------------------------------------
// The rebuild gate: is the cluster's row order observed?
// ---------------------------------------------------------------------

/// Taint marker for a column whose values were merged from *different*
/// `#` sources by a union; any use of such a column bails.
const CONFLICT: u32 = u32::MAX;

/// May the cluster rooted at `start` be rebuilt in another order? Walk
/// the downstream cone from `start` to `root` proving that no operator
/// can translate the cluster's *row order* into observable output.
/// Row-order influence propagates through per-row operators; `#` inside
/// the cone turns order into *opaque* ids, tracked per column and
/// accepted only where bijection-invariant (equality against ids of the
/// same source, grouping keys); `%`, f64-accumulating aggregates, node
/// constructors, and an influenced serialization root all bail.
/// Influence dies at an aggregate with at most one group (no partition
/// column, or a provably constant one). Anything this walk cannot vouch
/// for keeps its canonical tree — a rebuild happens only in a strict
/// subset of the safe cases.
fn order_unobserved(
    dag: &Dag,
    root: OpId,
    start: OpId,
    topo: &[OpId],
    keys: &props::KeyMap,
    props: &PropMap,
) -> bool {
    let mut influenced: HashSet<OpId> = HashSet::new();
    let mut taints: HashMap<OpId, HashMap<Col, u32>> = HashMap::new();
    influenced.insert(start);

    let t = |taints: &HashMap<OpId, HashMap<Col, u32>>, op: OpId, col: Col| -> Option<u32> {
        taints.get(&op).and_then(|m| m.get(&col).copied())
    };
    // Equality across two possibly-tainted columns is invariant only when
    // both are clean or both carry ids of one identical `#` source.
    let eq_ok = |a: Option<u32>, b: Option<u32>| a == b && a != Some(CONFLICT);

    for &id in topo {
        if id == start {
            continue;
        }
        let op = dag.op(id);
        let kids = op.children();
        let any_influence = kids.iter().any(|c| influenced.contains(c));
        let any_taint = kids
            .iter()
            .any(|c| taints.get(c).is_some_and(|m| !m.is_empty()));
        if !any_influence && !any_taint {
            continue;
        }
        let mut out_taint: HashMap<Col, u32> = HashMap::new();
        let mut out_influence = any_influence;
        match op {
            Op::Project { input, cols } => {
                for &(o, i) in cols {
                    if let Some(s) = t(&taints, *input, i) {
                        out_taint.insert(o, s);
                    }
                }
            }
            Op::Select { input, col } => {
                if t(&taints, *input, *col).is_some() {
                    return false;
                }
                out_taint = taints.get(input).cloned().unwrap_or_default();
            }
            Op::Attach { input, .. } => {
                out_taint = taints.get(input).cloned().unwrap_or_default();
            }
            Op::Fun {
                input,
                new,
                kind,
                args,
            } => {
                out_taint = taints.get(input).cloned().unwrap_or_default();
                let srcs: Vec<Option<u32>> = args.iter().map(|a| t(&taints, *input, *a)).collect();
                if srcs.iter().any(Option::is_some) {
                    let id_eq = matches!(kind, FunKind::Eq | FunKind::Ne)
                        && srcs.len() == 2
                        && eq_ok(srcs[0], srcs[1]);
                    if !id_eq {
                        return false;
                    }
                }
                out_taint.remove(new);
            }
            Op::RowId { input, new } => {
                out_taint = taints.get(input).cloned().unwrap_or_default();
                if influenced.contains(input) {
                    out_taint.insert(*new, id.0);
                } else {
                    out_taint.remove(new);
                }
            }
            Op::RowNum {
                input,
                new,
                order,
                part,
            } => {
                if part.is_some_and(|p| t(&taints, *input, p).is_some())
                    || order.iter().any(|k| t(&taints, *input, k.col).is_some())
                {
                    return false;
                }
                if influenced.contains(input) && !order.iter().any(|k| key_of(keys, *input, k.col))
                {
                    // Rank values would depend on arrival order.
                    return false;
                }
                out_taint = taints.get(input).cloned().unwrap_or_default();
                out_taint.remove(new);
            }
            Op::Aggr {
                input,
                kind,
                new,
                arg,
                part,
            } => {
                if arg.is_some_and(|a| t(&taints, *input, a).is_some()) {
                    return false;
                }
                let inf = influenced.contains(input);
                if inf
                    && matches!(
                        kind,
                        AggrKind::Sum | AggrKind::Avg | AggrKind::Ebv | AggrKind::StrJoin
                    )
                {
                    // f64 accumulation order / tie-broken concatenation /
                    // sequence EBV all observe arrival order.
                    return false;
                }
                match part {
                    None => out_influence = false,
                    Some(p) => {
                        let psrc = t(&taints, *input, *p);
                        if psrc == Some(CONFLICT) {
                            return false;
                        }
                        if let Some(s) = psrc {
                            out_taint.insert(*p, s);
                        }
                        let single_group = matches!(
                            props.get(input).and_then(|m| m.get(p)),
                            Some(ColProp::Const(_))
                        );
                        out_influence = inf && !single_group;
                    }
                }
                out_taint.remove(new);
            }
            Op::Distinct { input } => {
                out_taint = taints.get(input).cloned().unwrap_or_default();
                if out_taint.values().any(|&s| s == CONFLICT) {
                    return false;
                }
            }
            Op::Step { input, .. } => {
                if t(&taints, *input, Col::ITEM).is_some() {
                    return false;
                }
                if let Some(s) = t(&taints, *input, Col::ITER) {
                    out_taint.insert(Col::ITER, s);
                }
            }
            Op::Cross { l, r } => {
                out_taint = taints.get(l).cloned().unwrap_or_default();
                out_taint.extend(taints.get(r).cloned().unwrap_or_default());
            }
            Op::EquiJoin { l, r, lcol, rcol } => {
                if !eq_ok(t(&taints, *l, *lcol), t(&taints, *r, *rcol)) {
                    return false;
                }
                out_taint = taints.get(l).cloned().unwrap_or_default();
                out_taint.extend(taints.get(r).cloned().unwrap_or_default());
            }
            Op::ThetaJoin { l, r, pred } => {
                for &(a, k, b) in pred {
                    let (sa, sb) = (t(&taints, *l, a), t(&taints, *r, b));
                    let clean = sa.is_none() && sb.is_none();
                    let id_eq = matches!(k, FunKind::Eq | FunKind::Ne) && eq_ok(sa, sb);
                    if !clean && !id_eq {
                        return false;
                    }
                }
                out_taint = taints.get(l).cloned().unwrap_or_default();
                out_taint.extend(taints.get(r).cloned().unwrap_or_default());
            }
            Op::Union { l, r } => {
                for &c in dag.schema(id) {
                    match (t(&taints, *l, c), t(&taints, *r, c)) {
                        (None, None) => {}
                        (a, b) if a == b => {
                            out_taint.insert(c, a.unwrap());
                        }
                        _ => {
                            out_taint.insert(c, CONFLICT);
                        }
                    }
                }
            }
            Op::Difference { l, r, on } => {
                for &(lc, rc) in on {
                    if !eq_ok(t(&taints, *l, lc), t(&taints, *r, rc)) {
                        return false;
                    }
                }
                // Anti-semijoin: `r` contributes a value *set* only.
                out_taint = taints.get(l).cloned().unwrap_or_default();
                out_influence = influenced.contains(l);
            }
            Op::Range { input, lo, hi, new } => {
                if t(&taints, *input, *lo).is_some() || t(&taints, *input, *hi).is_some() {
                    return false;
                }
                out_taint = taints.get(input).cloned().unwrap_or_default();
                out_taint.remove(new);
            }
            Op::Serialize { input } => {
                out_taint = taints.get(input).cloned().unwrap_or_default();
            }
            // Node constructors fix the identity (and hence document
            // order) of new nodes by arrival order; anything else is
            // outside the proof.
            Op::Element { .. }
            | Op::Attr { .. }
            | Op::TextNode { .. }
            | Op::Lit { .. }
            | Op::Doc { .. }
            | Op::Collection => return false,
        }
        if out_influence {
            influenced.insert(id);
        }
        if !out_taint.is_empty() {
            taints.insert(id, out_taint);
        }
    }
    !influenced.contains(&root) && taints.get(&root).is_none_or(|m| m.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_algebra::AValue;

    fn lit(dag: &mut Dag, col: Col, vals: &[i64]) -> OpId {
        dag.add(Op::Lit {
            cols: vec![col],
            rows: vals.iter().map(|&v| vec![AValue::Int(v)]).collect(),
        })
    }

    /// Three-relation chain: big ⨝ big ⨝ tiny, written left-deep with the
    /// tiny relation last — the cost model should join through the tiny
    /// side first.
    fn chain_plan(dag: &mut Dag) -> (OpId, OpId) {
        let a = lit(dag, Col(40), &(0..30).collect::<Vec<_>>());
        (a, chain_on(dag, a))
    }

    /// The joins of [`chain_plan`] over a given 30-row first leaf
    /// carrying column 40.
    fn chain_on(dag: &mut Dag, a: OpId) -> OpId {
        let b = lit(dag, Col(41), &(0..30).map(|v| v % 3).collect::<Vec<_>>());
        let c = lit(dag, Col(42), &[0, 1]);
        let ab = dag.add(Op::ThetaJoin {
            l: a,
            r: b,
            pred: vec![(Col(40), FunKind::Ne, Col(41))],
        });
        dag.add(Op::EquiJoin {
            l: ab,
            r: c,
            lcol: Col(41),
            rcol: Col(42),
        })
    }

    /// An ungrouped count over `input`: a consumer that cannot observe
    /// its input's row order.
    fn count(dag: &mut Dag, input: OpId) -> OpId {
        dag.add(Op::Aggr {
            input,
            kind: AggrKind::Count,
            new: Col(50),
            arg: None,
            part: None,
        })
    }

    #[test]
    fn estimates_cover_every_operator_and_respect_perturbation() {
        let mut dag = Dag::new();
        let (a, root) = chain_plan(&mut dag);
        let est = estimate_cardinalities(&dag, root, &CostContext::default());
        for id in dag.topo_order(root) {
            assert!(est[&id].is_finite() && est[&id] > 0.0, "estimate for {id}");
        }
        assert_eq!(est[&a], 30.0);
        let perturbed = estimate_cardinalities(
            &dag,
            root,
            &CostContext {
                stats: None,
                perturb: Some(4.0),
            },
        );
        let expect = if a.0 % 2 == 0 { 120.0 } else { 7.5 };
        assert_eq!(perturbed[&a], expect);
        // Determinism: the same context reproduces the same numbers.
        let again = estimate_cardinalities(&dag, root, &CostContext::default());
        assert_eq!(est[&root], again[&root]);
    }

    #[test]
    fn join_reorder_fires_and_preserves_schema() {
        let mut dag = Dag::new();
        let (.., joins) = chain_plan(&mut dag);
        let root = count(&mut dag, joins);
        let schema_before: Vec<Col> = dag.schema(joins).to_vec();
        let opts = OptOptions::default();
        let (new_root, report) =
            cost_optimize(&mut dag, root, &opts, &CostContext::default()).unwrap();
        assert_eq!(report.clusters, 1);
        assert_eq!(report.reordered, 1, "cheap order should win: {report:?}");
        assert_eq!(report.elided, report.reordered);
        dag.validate_plan(new_root).unwrap();
        // The count now reads a π over the reordered joins, with the
        // cluster root's schema and no rank columns.
        let Op::Aggr { input: graft, .. } = dag.op(new_root) else {
            panic!("the count stays the root")
        };
        assert_ne!(*graft, joins);
        assert_eq!(dag.schema(*graft), schema_before.as_slice());
        let Op::Project { input, .. } = dag.op(*graft) else {
            panic!("the graft is a projection")
        };
        assert!(matches!(
            dag.op(*input),
            Op::EquiJoin { .. } | Op::ThetaJoin { .. }
        ));
        assert!(!dag
            .reachable(new_root)
            .iter()
            .any(|id| matches!(dag.op(*id), Op::RowId { .. })));
        assert_eq!(report.trace.len(), 1);
        assert_eq!(report.trace[0].rule, "cost-join-reorder");
    }

    #[test]
    fn join_reorder_respects_gates() {
        for opts in [
            OptOptions::disabled(),
            OptOptions::default().without_rule("cost-join-reorder"),
        ] {
            let mut dag = Dag::new();
            let (.., root) = chain_plan(&mut dag);
            let (new_root, report) =
                cost_optimize(&mut dag, root, &opts, &CostContext::default()).unwrap();
            assert_eq!(new_root, root);
            assert_eq!(report.reordered, 0);
            assert!(report.trace.is_empty());
            // Estimates are still available for --explain.
            assert!(!report.estimates.is_empty());
        }
    }

    #[test]
    fn two_relation_joins_keep_their_canonical_order() {
        let mut dag = Dag::new();
        let a = lit(&mut dag, Col(40), &[1, 2, 3]);
        let b = lit(&mut dag, Col(41), &[1, 2]);
        let root = dag.add(Op::EquiJoin {
            l: a,
            r: b,
            lcol: Col(40),
            rcol: Col(41),
        });
        let (new_root, report) = cost_optimize(
            &mut dag,
            root,
            &OptOptions::default(),
            &CostContext::default(),
        )
        .unwrap();
        assert_eq!(new_root, root);
        assert_eq!(report.reordered, 0);
    }

    #[test]
    fn clusters_past_the_dp_bound_keep_their_canonical_order() {
        // A left-deep equi-join chain under a count, big relations first
        // and a two-row relation last: with DP_LEAVES leaves the
        // enumerator joins through the tiny side first; one leaf more and
        // the cluster is examined but left exactly as written.
        for (leaves, reordered) in [(DP_LEAVES, 1), (DP_LEAVES + 1, 0)] {
            let mut dag = Dag::new();
            let big: Vec<i64> = (0..30).collect();
            let mut root = lit(&mut dag, Col(40), &big);
            for k in 1..leaves {
                let vals: &[i64] = if k + 1 == leaves { &[0, 1] } else { &big };
                let r = lit(&mut dag, Col(40 + k as u32), vals);
                root = dag.add(Op::EquiJoin {
                    l: root,
                    r,
                    lcol: Col(39 + k as u32),
                    rcol: Col(40 + k as u32),
                });
            }
            let root = count(&mut dag, root);
            let (new_root, report) = cost_optimize(
                &mut dag,
                root,
                &OptOptions::default(),
                &CostContext::default(),
            )
            .unwrap();
            assert_eq!(report.clusters, 1);
            assert_eq!(report.reordered, reordered, "{leaves} leaves: {report:?}");
            assert_eq!(new_root == root, reordered == 0);
        }
    }

    #[test]
    fn shared_interior_joins_are_cluster_leaves() {
        // The a⨝b result feeds both the outer join and a distinct — it
        // must not be dissolved (its other consumer still needs it).
        let mut dag = Dag::new();
        let a = lit(&mut dag, Col(40), &(0..20).collect::<Vec<_>>());
        let b = lit(&mut dag, Col(41), &(0..20).collect::<Vec<_>>());
        let c = lit(&mut dag, Col(42), &[0]);
        let ab = dag.add(Op::EquiJoin {
            l: a,
            r: b,
            lcol: Col(40),
            rcol: Col(41),
        });
        let outer = dag.add(Op::EquiJoin {
            l: ab,
            r: c,
            lcol: Col(41),
            rcol: Col(42),
        });
        let shared = dag.add(Op::Distinct { input: ab });
        let shared_p = dag.add(Op::Project {
            input: shared,
            cols: vec![(Col(43), Col(40))],
        });
        let root = dag.add(Op::Cross {
            l: outer,
            r: shared_p,
        });
        let (new_root, _) = cost_optimize(
            &mut dag,
            root,
            &OptOptions::default(),
            &CostContext::default(),
        )
        .unwrap();
        dag.validate_plan(new_root).unwrap();
        // ab stays reachable whatever happened to the outer cluster.
        assert!(dag.reachable(new_root).contains(&ab));
    }

    #[test]
    fn order_sensitive_aggregate_keeps_the_canonical_tree() {
        // Sum accumulates f64 in row order: the cheaper order is not
        // grafted, and the plan stays exactly as written.
        let mut dag = Dag::new();
        let (.., joins) = chain_plan(&mut dag);
        let root = dag.add(Op::Aggr {
            input: joins,
            kind: AggrKind::Sum,
            new: Col(50),
            arg: Some(Col(42)),
            part: None,
        });
        let (new_root, report) = cost_optimize(
            &mut dag,
            root,
            &OptOptions::default(),
            &CostContext::default(),
        )
        .unwrap();
        assert_eq!(report.reordered, 0, "sum observes row order: {report:?}");
        assert_eq!(new_root, root);
    }

    /// `Count‖iter` over the reorderable chain whose first leaf is two
    /// halves of column 40, attaching `iter` constants `iters.0` and
    /// `iters.1`, merged by `∪̇`.
    fn count_per_iter_over_union(iters: (i64, i64)) -> (Dag, OpId) {
        let mut dag = Dag::new();
        let mut half = |vals: std::ops::Range<i64>, iter: i64| {
            let input = lit(&mut dag, Col(40), &vals.collect::<Vec<_>>());
            dag.add(Op::Attach {
                input,
                col: Col::ITER,
                value: AValue::Int(iter),
            })
        };
        let (l, r) = (half(0..15, iters.0), half(15..30, iters.1));
        let a = dag.add(Op::Union { l, r });
        let joins = chain_on(&mut dag, a);
        let root = dag.add(Op::Aggr {
            input: joins,
            kind: AggrKind::Count,
            new: Col(50),
            arg: None,
            part: Some(Col::ITER),
        });
        (dag, root)
    }

    #[test]
    fn a_constant_group_proven_through_a_union_lets_the_rebuild_fire() {
        // Both parts attach `iter = 1`: the count has one group, so it
        // cannot observe the cluster's row order.
        let (mut dag, root) = count_per_iter_over_union((1, 1));
        let (new_root, report) = cost_optimize(
            &mut dag,
            root,
            &OptOptions::default(),
            &CostContext::default(),
        )
        .unwrap();
        assert_eq!((report.reordered, report.elided), (1, 1), "{report:?}");
        dag.validate_plan(new_root).unwrap();
    }

    #[test]
    fn union_parts_with_different_constants_keep_the_canonical_tree() {
        // `iter` is 1 on one side and 2 on the other: two groups, whose
        // counts come out in the order their rows arrive.
        let (mut dag, root) = count_per_iter_over_union((1, 2));
        let (new_root, report) = cost_optimize(
            &mut dag,
            root,
            &OptOptions::default(),
            &CostContext::default(),
        )
        .unwrap();
        assert_eq!(report.reordered, 0, "{report:?}");
        assert_eq!(new_root, root);
    }

    #[test]
    fn stats_sharpen_step_estimates() {
        use exrquy_xml::NameId;
        let mut stats = CatalogStats {
            frags: 2,
            elements: 100,
            total_nodes: 300,
            avg_fanout: 3.0,
            ..CatalogStats::default()
        };
        stats.elem_counts.insert(NameId(7), 50);
        let step =
            |s: &CatalogStats| step_estimate(4.0, Axis::Descendant, &NodeTest::Name(NameId(7)), s);
        // 50 elements over 2 fragments; an empty catalog (what no
        // statistics read as) has none, so the yield's floor.
        assert_eq!(step(&stats), 4.0 * 25.0);
        assert_eq!(step(&CatalogStats::default()), 4.0 * 1e-3);
    }
}
