//! The plan rewriter: applies column dependency analysis, `%`-weakening
//! and step merging to a fixpoint.

use crate::props::{domains, keys, origin, properties, ColProp, KeyMap, PropMap};
use crate::required::{only_join_col_required, required_columns};
use crate::rules::RuleSet;
use exrquy_algebra::{Col, Dag, Op, OpId};
use exrquy_xml::{Axis, NodeTest};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Which rewrites to run. The defaults correspond to the paper's modified
/// compiler; disabling named rules gives the baseline and the ablation
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptOptions {
    /// Rules that may not fire (see [`crate::rules::RULE_NAMES`]) — the
    /// optimizer's only switch. It rides the plan-cache fingerprint, so
    /// two configurations never alias in the cache. The differential
    /// attribution harness replays a diverging query with one suspect
    /// rewrite switched off at a time.
    pub disabled_rules: RuleSet,
    /// Fixpoint bound.
    pub max_rounds: usize,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            disabled_rules: RuleSet::empty(),
            max_rounds: 8,
        }
    }
}

impl OptOptions {
    /// The baseline compiler: one round, with every rule of the paper's
    /// three passes off — §4.1 column dependency analysis (bypass dead
    /// `%`/`#`/attach, prune projections, remove loop-lifting's map
    /// joins), §7 `%`→`#` weakening, §5 step merging — and the cost
    /// pass's join reordering. The π clean-ups, `∪̇` schema alignment,
    /// disjoint-union `δ` removal and the shard rules stay on.
    pub fn disabled() -> Self {
        OptOptions {
            disabled_rules: RuleSet::from_names([
                "cda-bypass-rownum",
                "cda-bypass-rowid",
                "cda-bypass-attach",
                "project-prune",
                "join-elim-key-domain",
                "join-self-key",
                "weaken-criteria",
                "weaken-rownum-to-rowid",
                "merge-steps",
                "cost-join-reorder",
            ])
            .expect("baseline rules are known"),
            max_rounds: 1,
        }
    }

    /// This configuration with one more named rule disabled.
    pub fn without_rule(mut self, rule: &str) -> Self {
        self.disabled_rules = self.disabled_rules.with(rule);
        self
    }
}

/// One named rule application recorded in the rewrite trace: in `round`,
/// `rule` rewrote the operator `before` into `after`.
#[derive(Debug, Clone)]
pub struct RuleApplication {
    pub round: usize,
    pub rule: &'static str,
    pub before: OpId,
    pub after: OpId,
}

/// The optimizer produced an ill-formed plan (always an optimizer bug,
/// never a user error): names the rule, the operator it was rewriting,
/// that operator's kind, and the fixpoint round — enough to replay the
/// failure from the rewrite trace.
#[derive(Debug, Clone)]
pub struct OptError {
    /// The rule whose output failed validation.
    pub rule: &'static str,
    /// The (pre-rewrite) operator the rule was applied to.
    pub op: OpId,
    /// Kind name of the operator the rule tried to intern.
    pub kind: &'static str,
    /// Fixpoint round (0-based) in which the rule fired.
    pub round: usize,
    /// The underlying schema/structure violation.
    pub message: String,
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "round {}: rule `{}` on {} produced an ill-formed `{}` operator: {}",
            self.round, self.rule, self.op, self.kind, self.message
        )
    }
}

impl std::error::Error for OptError {}

/// The rewrite trace of one optimization run: every named rule
/// application, in firing order.
#[derive(Debug, Clone)]
pub struct OptReport {
    pub trace: Vec<RuleApplication>,
}

impl OptReport {
    /// Rule applications of a given rule name (trace query helper).
    pub fn fired(&self, rule: &str) -> usize {
        self.trace.iter().filter(|a| a.rule == rule).count()
    }
}

/// Optimize the plan rooted at `root`; returns the new root and a report.
/// New operators are interned into the same arena (old ones simply become
/// unreachable). Every rule application is schema-validated the moment it
/// interns its result (via [`Dag::try_add`]) and the whole plan is
/// re-validated ([`Dag::validate_plan`]) after every fixpoint round. An
/// ill-formed rewrite surfaces as a typed [`OptError`] naming the rule and
/// operator instead of a panic deep inside the arena.
pub fn try_optimize(
    dag: &mut Dag,
    root: OpId,
    opts: &OptOptions,
) -> Result<(OpId, OptReport), OptError> {
    try_optimize_with(dag, root, opts, None)
}

/// [`try_optimize`] with an optional *rule perturbation*: when `perturb`
/// names a rule, that rule is applied in a deliberately unsound variant
/// (supported for `weaken-criteria`, which then drops *every* sort
/// criterion instead of only the provably irrelevant ones, and for
/// `join-elim-key-domain`, which then accepts a key side that covers only
/// a *subset* of its origin). This is the optimizer's arm of the
/// `rule-perturb` failpoint — a planted, deterministic optimizer bug that
/// the differential oracle must catch and the attribution pass must pin
/// on the named rule. A perturbed rule still honors
/// [`OptOptions::disabled_rules`], which is exactly what lets attribution
/// make the planted divergence vanish.
pub fn try_optimize_with(
    dag: &mut Dag,
    root: OpId,
    opts: &OptOptions,
    perturb: Option<&str>,
) -> Result<(OpId, OptReport), OptError> {
    let mut cur = root;
    let mut trace = Vec::new();
    for round in 0..opts.max_rounds {
        let next = one_round(dag, cur, opts, perturb, round, &mut trace)?;
        if next == cur {
            break;
        }
        dag.validate_plan(next).map_err(|e| OptError {
            rule: "fixpoint-round",
            op: next,
            kind: dag.op(next).kind_name(),
            round,
            message: e.0,
        })?;
        cur = next;
    }
    Ok((cur, OptReport { trace }))
}

/// Per-round analysis results + trace sink, bundled so the per-operator
/// rewriter doesn't take nine arguments.
struct Ctx<'a> {
    req: HashMap<OpId, BTreeSet<Col>>,
    props: PropMap,
    key_cols: KeyMap,
    /// Joins that pair every left row with exactly one right row (see
    /// [`one_to_one_joins`]).
    one_to_one: HashSet<OpId>,
    disabled: RuleSet,
    perturb: Option<&'a str>,
    round: usize,
    trace: &'a mut Vec<RuleApplication>,
}

impl Ctx<'_> {
    /// Record that `rule` rewrote `before` into `after`.
    fn fire(&mut self, rule: &'static str, before: OpId, after: OpId) {
        self.trace.push(RuleApplication {
            round: self.round,
            rule,
            before,
            after,
        });
    }

    /// May the named rule fire under the current options?
    fn on(&self, rule: &str) -> bool {
        !self.disabled.contains(rule)
    }

    /// Is the named rule armed for unsound perturbation (and not disabled)?
    fn perturbed(&self, rule: &str) -> bool {
        self.perturb == Some(rule) && self.on(rule)
    }
}

/// Intern a rewritten operator, converting a schema violation into a typed
/// [`OptError`] that names the rule and the operator being rewritten. This
/// is the per-rewrite validation hook: every rule's output passes through
/// here before it can reach the plan.
fn intern(
    dag: &mut Dag,
    ctx: &Ctx<'_>,
    rule: &'static str,
    old_id: OpId,
    op: Op,
) -> Result<OpId, OptError> {
    let kind = op.kind_name();
    dag.try_add(op).map_err(|e| OptError {
        rule,
        op: old_id,
        kind,
        round: ctx.round,
        message: e.0,
    })
}

fn one_round(
    dag: &mut Dag,
    root: OpId,
    opts: &OptOptions,
    perturb: Option<&str>,
    round: usize,
    trace: &mut Vec<RuleApplication>,
) -> Result<OpId, OptError> {
    let on = |rule: &str| !opts.disabled_rules.contains(rule);
    let join_elim = on("join-elim-key-domain");
    let key_cols = if on("weaken-criteria") || join_elim || on("join-self-key") {
        keys(dag, root)
    } else {
        KeyMap::new()
    };
    let one_to_one = if join_elim {
        one_to_one_joins(
            dag,
            root,
            &key_cols,
            perturb == Some("join-elim-key-domain"),
        )
    } else {
        HashSet::new()
    };
    let mut ctx = Ctx {
        req: required_columns(dag, root, on("project-prune"), &one_to_one),
        props: properties(dag, root),
        key_cols,
        one_to_one,
        disabled: opts.disabled_rules,
        perturb,
        round,
        trace,
    };
    let order = dag.topo_order(root);
    let mut memo: HashMap<OpId, OpId> = HashMap::new();
    for old_id in order {
        let old_op = dag.op(old_id).clone();
        let new_children: Vec<OpId> = old_op.children().iter().map(|c| memo[c]).collect();
        let new_id = rewrite_op(dag, &mut ctx, &memo, old_id, &old_op, &new_children)?;
        memo.insert(old_id, new_id);
    }
    Ok(memo[&root])
}

fn reqs(req: &HashMap<OpId, BTreeSet<Col>>, id: OpId) -> BTreeSet<Col> {
    req.get(&id).cloned().unwrap_or_default()
}

fn prop_of(props: &PropMap, id: OpId, col: Col) -> Option<&ColProp> {
    props.get(&id).and_then(|m| m.get(&col))
}

/// Distribute a row-wise operator beneath a `∪̂`: rebuild it once per
/// shard part and re-union. Sound for operators that map each input row
/// independently (π, fun) and — because shard parts are
/// disjoint, *ascending* fragment ranges — for `⬡` and a single-row `×`,
/// where the shard-major concatenation commutes with the operator row
/// for row. Pushing is what lets the engine run steps (staircase joins)
/// shard-parallel: each `∪̂` part becomes an independent subplan.
///
/// Returns `Ok(None)` when `union_id` is not a `∪̂` or the rule is
/// disabled; the caller falls through to its ordinary rebuild.
fn push_below_shard_union(
    dag: &mut Dag,
    ctx: &mut Ctx<'_>,
    rule: &'static str,
    old_id: OpId,
    union_id: OpId,
    mut make: impl FnMut(OpId) -> Op,
) -> Result<Option<OpId>, OptError> {
    if !ctx.on(rule) {
        return Ok(None);
    }
    let Op::ShardUnion { parts } = dag.op(union_id).clone() else {
        return Ok(None);
    };
    let mut new_parts = Vec::with_capacity(parts.len());
    for p in parts {
        new_parts.push(intern(dag, ctx, rule, old_id, make(p))?);
    }
    let id = intern(dag, ctx, rule, old_id, Op::ShardUnion { parts: new_parts })?;
    ctx.fire(rule, old_id, id);
    Ok(Some(id))
}

/// Rule `join-self-key`: `π_a(X) ⋈ π_b(X)` where both join columns
/// rename one key `k` of `X` pairs every row of `X` with itself and
/// nothing else, so the join is `π_{a ∪ b}(X)` — same rows, in `X`'s
/// physical order (the join emits left rows in order).
fn join_self_key(
    dag: &mut Dag,
    ctx: &mut Ctx<'_>,
    memo: &HashMap<OpId, OpId>,
    old_id: OpId,
    (l, r, lcol, rcol): (OpId, OpId, Col, Col),
    my_req: &BTreeSet<Col>,
) -> Result<Option<OpId>, OptError> {
    if !ctx.on("join-self-key") {
        return Ok(None);
    }
    let (Op::Project { input: x, cols: a }, Op::Project { input: xr, cols: b }) =
        (dag.op(l), dag.op(r))
    else {
        return Ok(None);
    };
    let source = |cols: &[(Col, Col)], c: Col| cols.iter().find(|(n, _)| *n == c).map(|(_, s)| *s);
    let (Some(k), Some(kr)) = (source(a, lcol), source(b, rcol)) else {
        return Ok(None);
    };
    if x != xr || k != kr || !ctx.key_cols.get(x).is_some_and(|ks| ks.contains(&k)) {
        return Ok(None);
    }
    let mut cols: Vec<(Col, Col)> = a
        .iter()
        .chain(b)
        .copied()
        .filter(|(n, _)| my_req.contains(n))
        .collect();
    if cols.is_empty() {
        cols.push((lcol, k));
    }
    let input = memo[x];
    let id = intern(
        dag,
        ctx,
        "join-self-key",
        old_id,
        Op::Project { input, cols },
    )?;
    ctx.fire("join-self-key", old_id, id);
    Ok(Some(id))
}

/// The equi-joins `l ⋈ r` on `lcol = rcol` in which every left row has
/// exactly one partner: `rcol` is a key of `r`, and its values are
/// *exactly* the origin that `lcol`'s values are drawn from. With
/// `skip_exact` (the planted `rule-perturb:join-elim-key-domain` bug) a
/// key side that lost rows since its origin is accepted too — left rows
/// whose partner was filtered away then survive the vanished join.
fn one_to_one_joins(dag: &Dag, root: OpId, key_cols: &KeyMap, skip_exact: bool) -> HashSet<OpId> {
    let dom = domains(dag, root);
    // A join neither of whose sides carries a claim has no entry itself.
    dom.keys()
        .copied()
        .filter(|&id| {
            let &Op::EquiJoin { l, r, lcol, rcol } = dag.op(id) else {
                return false;
            };
            let (Some(lo), Some(ro)) = (origin(&dom, l, lcol), origin(&dom, r, rcol)) else {
                return false;
            };
            key_cols.get(&r).is_some_and(|ks| ks.contains(&rcol))
                && lo.same_source(ro)
                && (ro.exact || skip_exact)
        })
        .collect()
}

/// Rule `join-elim-key-domain`: a one-to-one join whose consumers want
/// nothing of `r` but (possibly) `rcol` is `l` itself, with `rcol` a copy
/// of `lcol` — same rows, same physical order. Left-preserving only:
/// dropping the left side would emit `r`'s order, which a `#` downstream
/// could observe. [`required_columns`] applies the same test, so that
/// `lcol` is not demanded of `l` on behalf of a join that is going away.
fn join_elim_key_domain(
    dag: &mut Dag,
    ctx: &mut Ctx<'_>,
    old_id: OpId,
    (new_l, r, lcol, rcol): (OpId, OpId, Col, Col),
    my_req: &BTreeSet<Col>,
) -> Result<Option<OpId>, OptError> {
    const RULE: &str = "join-elim-key-domain";
    if !ctx.one_to_one.contains(&old_id) || !only_join_col_required(dag, r, rcol, my_req) {
        return Ok(None);
    }
    let id = if my_req.contains(&rcol) {
        let mut cols: Vec<(Col, Col)> = dag.schema(new_l).iter().map(|&c| (c, c)).collect();
        cols.push((rcol, lcol));
        let op = Op::Project { input: new_l, cols };
        intern(dag, ctx, RULE, old_id, op)?
    } else {
        new_l
    };
    ctx.fire(RULE, old_id, id);
    Ok(Some(id))
}

fn rewrite_op(
    dag: &mut Dag,
    ctx: &mut Ctx<'_>,
    memo: &HashMap<OpId, OpId>,
    old_id: OpId,
    old_op: &Op,
    ch: &[OpId],
) -> Result<OpId, OptError> {
    let my_req = reqs(&ctx.req, old_id);
    match old_op {
        // ---- operators that only add a column: bypass when dead
        Op::RowNum {
            new, order, part, ..
        } => {
            let old_input = old_op.children()[0];
            if ctx.on("cda-bypass-rownum") && !my_req.contains(new) {
                ctx.fire("cda-bypass-rownum", old_id, ch[0]);
                return Ok(ch[0]);
            }
            let (mut order, mut part) = (order.clone(), *part);
            let mut rule: &'static str = "rebuild";
            if ctx.on("weaken-criteria") {
                let (len0, part0) = (order.len(), part);
                // Drop constant criteria (sound: ties everywhere).
                order.retain(|k| {
                    !matches!(
                        prop_of(&ctx.props, old_input, k.col),
                        Some(ColProp::Const(_))
                    )
                });
                // §7: a globally unique criterion leaves no ties — later
                // criteria are never consulted and can be truncated.
                if let Some(ks) = ctx.key_cols.get(&old_input) {
                    if let Some(i) = order.iter().position(|k| ks.contains(&k.col)) {
                        order.truncate(i + 1);
                    }
                }
                // If every remaining criterion is arbitrary, the whole
                // order spec conveys nothing: drop it (§7).
                if !order.is_empty()
                    && order.iter().all(|k| {
                        matches!(
                            prop_of(&ctx.props, old_input, k.col),
                            Some(ColProp::Arbitrary)
                        )
                    })
                {
                    order.clear();
                }
                if ctx.perturbed("weaken-criteria") && !order.is_empty() {
                    // Planted bug (`rule-perturb:weaken-criteria`): treat
                    // *every* criterion as droppable — unsound whenever a
                    // real criterion remained, which is what the oracle
                    // must catch and attribution must pin on this rule.
                    order.clear();
                    part = None;
                }
                if let Some(p) = part {
                    if matches!(prop_of(&ctx.props, old_input, p), Some(ColProp::Const(_))) {
                        part = None;
                    }
                }
                if order.len() != len0 || part != part0 {
                    rule = "weaken-criteria";
                }
            }
            if ctx.on("weaken-rownum-to-rowid") && order.is_empty() && part.is_none() {
                let id = intern(
                    dag,
                    ctx,
                    "weaken-rownum-to-rowid",
                    old_id,
                    Op::RowId {
                        input: ch[0],
                        new: *new,
                    },
                )?;
                // When criteria-weakening is what emptied the order
                // spec, record it too: attribution enumerates the
                // trace, and disabling `weaken-criteria` (not the
                // conversion) is what undoes the weakening.
                if rule == "weaken-criteria" {
                    ctx.fire("weaken-criteria", old_id, id);
                }
                ctx.fire("weaken-rownum-to-rowid", old_id, id);
                return Ok(id);
            }
            let id = intern(
                dag,
                ctx,
                rule,
                old_id,
                Op::RowNum {
                    input: ch[0],
                    new: *new,
                    order,
                    part,
                },
            )?;
            if rule != "rebuild" {
                ctx.fire(rule, old_id, id);
            }
            Ok(id)
        }
        Op::RowId { new, .. } if ctx.on("cda-bypass-rowid") && !my_req.contains(new) => {
            ctx.fire("cda-bypass-rowid", old_id, ch[0]);
            Ok(ch[0])
        }
        Op::Attach { col, .. } if ctx.on("cda-bypass-attach") && !my_req.contains(col) => {
            ctx.fire("cda-bypass-attach", old_id, ch[0]);
            Ok(ch[0])
        }
        Op::Fun {
            new, kind, args, ..
        } => {
            if let Some(id) =
                push_below_shard_union(dag, ctx, "shard-push-fun", old_id, ch[0], |p| Op::Fun {
                    input: p,
                    new: *new,
                    kind: *kind,
                    args: args.clone(),
                })?
            {
                return Ok(id);
            }
            intern(
                dag,
                ctx,
                "rebuild",
                old_id,
                Op::Fun {
                    input: ch[0],
                    new: *new,
                    kind: *kind,
                    args: args.clone(),
                },
            )
        }
        // ---- projections: prune & collapse
        Op::Project { cols, .. } => {
            let mut cols: Vec<(Col, Col)> = cols.clone();
            let mut pruned_any = false;
            if ctx.on("project-prune") {
                let pruned: Vec<(Col, Col)> = cols
                    .iter()
                    .copied()
                    .filter(|(new, _)| my_req.contains(new))
                    .collect();
                if !pruned.is_empty() {
                    pruned_any = pruned.len() != cols.len();
                    cols = pruned;
                }
            }
            if pruned_any {
                ctx.fire("project-prune", old_id, old_id);
            }
            // Collapse π over π.
            if ctx.on("project-collapse") {
                if let Op::Project {
                    input: inner_input,
                    cols: inner_cols,
                } = dag.op(ch[0]).clone()
                {
                    let composed: Option<Vec<(Col, Col)>> = cols
                        .iter()
                        .map(|(new, src)| {
                            inner_cols
                                .iter()
                                .find(|(n, _)| n == src)
                                .map(|(_, inner_src)| (*new, *inner_src))
                        })
                        .collect();
                    if let Some(composed) = composed {
                        cols = composed;
                        let identity = cols.iter().all(|(n, s)| n == s)
                            && dag.schema(inner_input)
                                == cols.iter().map(|(n, _)| *n).collect::<Vec<_>>();
                        if identity && ctx.on("project-identity") {
                            ctx.fire("project-identity", old_id, inner_input);
                            return Ok(inner_input);
                        }
                        let id = intern(
                            dag,
                            ctx,
                            "project-collapse",
                            old_id,
                            Op::Project {
                                input: inner_input,
                                cols,
                            },
                        )?;
                        ctx.fire("project-collapse", old_id, id);
                        return Ok(id);
                    }
                }
            }
            // Identity projection removal.
            let identity = cols.iter().all(|(n, s)| n == s)
                && dag.schema(ch[0]) == cols.iter().map(|(n, _)| *n).collect::<Vec<_>>();
            if identity && ctx.on("project-identity") {
                ctx.fire("project-identity", old_id, ch[0]);
                return Ok(ch[0]);
            }
            if let Some(id) =
                push_below_shard_union(dag, ctx, "shard-push-project", old_id, ch[0], |p| {
                    Op::Project {
                        input: p,
                        cols: cols.clone(),
                    }
                })?
            {
                return Ok(id);
            }
            intern(
                dag,
                ctx,
                "rebuild",
                old_id,
                Op::Project { input: ch[0], cols },
            )
        }
        // ---- step merging (§5)
        Op::Step { axis, test, .. } => {
            if ctx.on("merge-steps") && *axis == Axis::Child {
                if let Some(inner_input) = find_dos_step(dag, ch[0]) {
                    let id = intern(
                        dag,
                        ctx,
                        "merge-steps",
                        old_id,
                        Op::Step {
                            input: inner_input,
                            axis: Axis::Descendant,
                            test: *test,
                        },
                    )?;
                    ctx.fire("merge-steps", old_id, id);
                    return Ok(id);
                }
            }
            // Pushing a step beneath `∪̂` is sound only when `iter` is a
            // known constant across the union: a step never leaves its
            // fragment, shard parts cover disjoint ascending fragment
            // ranges, and with a single iteration the per-shard results
            // concatenate back into global document order. With varying
            // `iter` the parts would interleave by iteration and the
            // concatenation would no longer match the unsharded row order.
            if matches!(
                prop_of(&ctx.props, old_op.children()[0], Col::ITER),
                Some(ColProp::Const(_))
            ) {
                if let Some(id) =
                    push_below_shard_union(dag, ctx, "shard-push-step", old_id, ch[0], |p| {
                        Op::Step {
                            input: p,
                            axis: *axis,
                            test: *test,
                        }
                    })?
                {
                    return Ok(id);
                }
            }
            intern(
                dag,
                ctx,
                "rebuild",
                old_id,
                Op::Step {
                    input: ch[0],
                    axis: *axis,
                    test: *test,
                },
            )
        }
        // ---- structural simplifications
        Op::Distinct { .. } => {
            // §1/§4.2: a union of two steps over the *same* context with
            // provably disjoint name tests needs no duplicate elimination
            // ("obviously, the two steps yield disjoint results") — the δ
            // over ∪̇ disappears, leaving the bare concatenation of
            // Figure 10.
            if ctx.on("distinct-disjoint-union") {
                if let Op::Union { l, r } = *dag.op(ch[0]) {
                    if steps_disjoint(dag, l, r) {
                        ctx.fire("distinct-disjoint-union", old_id, ch[0]);
                        return Ok(ch[0]);
                    }
                }
            }
            intern(dag, ctx, "rebuild", old_id, Op::Distinct { input: ch[0] })
        }
        Op::Union { .. } => {
            let (l, r) = (ch[0], ch[1]);
            // Defensive alignment: column pruning may have left the two
            // sides with different column sets — project both to the
            // required set.
            let ls: BTreeSet<Col> = dag.schema(l).iter().copied().collect();
            let rs: BTreeSet<Col> = dag.schema(r).iter().copied().collect();
            if ls != rs && ctx.on("union-align-schema") {
                let common: BTreeSet<Col> = ls.intersection(&rs).copied().collect();
                let target: BTreeSet<Col> = if my_req.is_empty() {
                    common.clone()
                } else {
                    my_req.intersection(&common).copied().collect()
                };
                let target = if target.is_empty() { common } else { target };
                let lp = project_to(dag, ctx, l, &target)?;
                let rp = project_to(dag, ctx, r, &target)?;
                let id = intern(
                    dag,
                    ctx,
                    "union-align-schema",
                    old_id,
                    Op::Union { l: lp, r: rp },
                )?;
                ctx.fire("union-align-schema", old_id, id);
                return Ok(id);
            }
            intern(dag, ctx, "rebuild", old_id, Op::Union { l, r })
        }
        // ---- sharded collection scans (∪̂ of fanouts)
        Op::Cross { .. } => {
            let (l, r) = (ch[0], ch[1]);
            // `l × (A ∪̂ B) = (l × A) ∪̂ (l × B)`. Restricted to a
            // single-row literal left input (the constant outer loop of a
            // top-level `collection()` scan): with one left row the
            // distributed form replays the right-hand concatenation row
            // for row, so even `#`-observed physical order is preserved.
            if matches!(dag.op(l), Op::Lit { rows, .. } if rows.len() == 1) {
                if let Some(id) =
                    push_below_shard_union(dag, ctx, "shard-push-cross", old_id, r, |p| {
                        Op::Cross { l, r: p }
                    })?
                {
                    return Ok(id);
                }
            }
            intern(dag, ctx, "rebuild", old_id, Op::Cross { l, r })
        }
        Op::ShardUnion { .. } => {
            // A one-shard catalog compiles to `∪̂` of a single fanout —
            // the union is the identity and disappears, so unsharded
            // plans carry no union overhead at all.
            if ctx.on("shard-union-singleton") && ch.len() == 1 {
                ctx.fire("shard-union-singleton", old_id, ch[0]);
                return Ok(ch[0]);
            }
            intern(
                dag,
                ctx,
                "rebuild",
                old_id,
                Op::ShardUnion { parts: ch.to_vec() },
            )
        }
        // ---- map joins against a key-only copy of the loop relation
        &Op::EquiJoin { l, r, lcol, rcol } => {
            if let Some(id) = join_self_key(dag, ctx, memo, old_id, (l, r, lcol, rcol), &my_req)? {
                return Ok(id);
            }
            let join = (ch[0], r, lcol, rcol);
            if let Some(id) = join_elim_key_domain(dag, ctx, old_id, join, &my_req)? {
                return Ok(id);
            }
            intern(dag, ctx, "rebuild", old_id, old_op.with_children(ch))
        }
        // ---- default: rebuild with rewritten children
        other => intern(dag, ctx, "rebuild", old_id, other.with_children(ch)),
    }
}

/// Project `id` onto exactly `cols` (no-op when already exact).
fn project_to(
    dag: &mut Dag,
    ctx: &Ctx<'_>,
    id: OpId,
    cols: &BTreeSet<Col>,
) -> Result<OpId, OptError> {
    let schema: BTreeSet<Col> = dag.schema(id).iter().copied().collect();
    if &schema == cols {
        return Ok(id);
    }
    let list: Vec<(Col, Col)> = cols.iter().map(|&c| (c, c)).collect();
    intern(
        dag,
        ctx,
        "union-align-schema",
        id,
        Op::Project {
            input: id,
            cols: list,
        },
    )
}

/// Are `l` and `r` step operators over the same context whose results are
/// provably disjoint (same axis, different element/attribute name tests)?
/// Step outputs are duplicate-free per iteration, so their union is too.
fn steps_disjoint(dag: &Dag, l: OpId, r: OpId) -> bool {
    match (dag.op(l), dag.op(r)) {
        (
            Op::Step {
                input: li,
                axis: la,
                test: NodeTest::Name(ln),
            },
            Op::Step {
                input: ri,
                axis: ra,
                test: NodeTest::Name(rn),
            },
        ) => li == ri && la == ra && ln != rn,
        _ => false,
    }
}

/// Walk through row-preserving `[iter,item]`-faithful operators (π keeping
/// `iter`/`item` unrenamed, δ) until a `⬡descendant-or-self::node()` is
/// found; return that step's input.
fn find_dos_step(dag: &Dag, mut id: OpId) -> Option<OpId> {
    loop {
        match dag.op(id) {
            Op::Project { input, cols } => {
                let iter_ok = cols.iter().any(|&(n, s)| n == Col::ITER && s == Col::ITER);
                let item_ok = cols.iter().any(|&(n, s)| n == Col::ITEM && s == Col::ITEM);
                if iter_ok && item_ok {
                    id = *input;
                } else {
                    return None;
                }
            }
            Op::Distinct { input } => id = *input,
            Op::Step {
                input,
                axis: Axis::DescendantOrSelf,
                test: NodeTest::AnyKind,
            } => return Some(*input),
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_algebra::{AValue, PlanStats, SortKey};

    fn lit(dag: &mut Dag, cols: Vec<Col>) -> OpId {
        dag.add(Op::Lit { cols, rows: vec![] })
    }

    /// Build the FN:UNORDERED pattern over an ordered step result:
    /// serialize(π(#pos(π iter,item(%pos(step)))))  — CDA must delete the %.
    #[test]
    fn cda_removes_overwritten_rownum() {
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM]);
        let rn = dag.add(Op::RowNum {
            input: src,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let proj = dag.add(Op::Project {
            input: rn,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        });
        let hash = dag.add(Op::RowId {
            input: proj,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: hash });
        let before = PlanStats::of(&dag, root);
        assert_eq!(before.rownums(), 1);
        let (new_root, _) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        let after = PlanStats::of(&dag, new_root);
        assert_eq!(after.rownums(), 0, "{after}");
        assert!(after.total < before.total);
    }

    #[test]
    fn weakening_turns_arbitrary_criteria_rownum_into_rowid() {
        // % pos1:⟨bind⟩ with bind from # — §7's endgame.
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITEM]);
        let h = dag.add(Op::RowId {
            input: src,
            new: Col::BIND,
        });
        let rn = dag.add(Op::RowNum {
            input: h,
            new: Col::POS,
            order: vec![SortKey::asc(Col::BIND)],
            part: None,
        });
        let proj = dag.add(Op::Project {
            input: rn,
            cols: vec![(Col::POS, Col::POS), (Col::ITEM, Col::ITEM)],
        });
        let root = dag.add(Op::Serialize { input: proj });
        let (new_root, _) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        let after = PlanStats::of(&dag, new_root);
        assert_eq!(after.rownums(), 0, "{after}");
        // The pos numbering itself is still produced (required!), as a #.
        assert!(after.rowids() >= 1);
    }

    #[test]
    fn constant_part_and_criteria_are_dropped() {
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITEM]);
        let c = dag.add(Op::Attach {
            input: src,
            col: Col::ITER,
            value: AValue::Int(1),
        });
        let c2 = dag.add(Op::Attach {
            input: c,
            col: Col::POS1,
            value: AValue::Int(7),
        });
        let rn = dag.add(Op::RowNum {
            input: c2,
            new: Col::POS,
            order: vec![SortKey::asc(Col::POS1), SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let root = dag.add(Op::Serialize { input: rn });
        let (new_root, _) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        // The % survives (item is a real criterion) but lost the constant
        // part and the constant first criterion.
        let found = dag
            .reachable(new_root)
            .into_iter()
            .find_map(|id| match dag.op(id) {
                Op::RowNum { order, part, .. } => Some((order.clone(), *part)),
                _ => None,
            })
            .expect("rownum survives");
        assert_eq!(found.0.len(), 1);
        assert_eq!(found.0[0].col, Col::ITEM);
        assert_eq!(found.1, None);
    }

    #[test]
    fn step_merge_fuses_dos_child() {
        let mut dag = Dag::new();
        let ctx = lit(&mut dag, vec![Col::ITER, Col::ITEM]);
        let dos = dag.add(Op::Step {
            input: ctx,
            axis: Axis::DescendantOrSelf,
            test: NodeTest::AnyKind,
        });
        let proj = dag.add(Op::Project {
            input: dos,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        });
        let child = dag.add(Op::Step {
            input: proj,
            axis: Axis::Child,
            test: NodeTest::Element,
        });
        let h = dag.add(Op::RowId {
            input: child,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: h });
        let (new_root, _) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        let stats = PlanStats::of(&dag, new_root);
        assert_eq!(stats.steps(), 1, "{stats}");
        let merged = dag
            .reachable(new_root)
            .into_iter()
            .find_map(|id| match dag.op(id) {
                Op::Step { axis, .. } => Some(*axis),
                _ => None,
            })
            .unwrap();
        assert_eq!(merged, Axis::Descendant);
    }

    #[test]
    fn disabled_options_change_nothing() {
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM]);
        let rn = dag.add(Op::RowNum {
            input: src,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let proj = dag.add(Op::Project {
            input: rn,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        });
        let hash = dag.add(Op::RowId {
            input: proj,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: hash });
        let before = PlanStats::of(&dag, root);
        let (new_root, _) = try_optimize(&mut dag, root, &OptOptions::disabled()).unwrap();
        let after = PlanStats::of(&dag, new_root);
        assert_eq!(before.total, after.total);
        assert_eq!(after.rownums(), 1);
    }

    #[test]
    fn unique_criterion_truncates_suffix() {
        // §7: % pos1:⟨bind,pos⟩‖outer where bind is globally unique (it
        // came from an unpartitioned numbering): `pos` is never consulted.
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITEM, Col::POS, Col::OUTER]);
        let numbered = dag.add(Op::RowNum {
            input: src,
            new: Col::BIND,
            order: vec![SortKey::asc(Col::ITEM)],
            part: None, // global numbering → BIND unique
        });
        let rn = dag.add(Op::RowNum {
            input: numbered,
            new: Col::POS1,
            order: vec![SortKey::asc(Col::BIND), SortKey::asc(Col::POS)],
            part: Some(Col::OUTER),
        });
        let proj = dag.add(Op::Project {
            input: rn,
            cols: vec![(Col::POS, Col::POS1), (Col::ITEM, Col::ITEM)],
        });
        let root = dag.add(Op::Serialize { input: proj });
        let (new_root, _) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        let truncated = dag
            .reachable(new_root)
            .into_iter()
            .filter_map(|id| match dag.op(id) {
                Op::RowNum { order, new, .. } if *new == Col::POS1 => Some(order.clone()),
                _ => None,
            })
            .next()
            .expect("outer rownum survives");
        assert_eq!(truncated.len(), 1, "{truncated:?}");
        assert_eq!(truncated[0].col, Col::BIND);
    }

    #[test]
    fn disjoint_step_union_needs_no_distinct() {
        // §4.2 / Figure 10: δ(∪̇(⬡child::c q, ⬡child::d q)) — the steps'
        // results are disjoint, the δ disappears.
        let mut dag = Dag::new();
        let ctx = lit(&mut dag, vec![Col::ITER, Col::ITEM]);
        let mut pool = exrquy_xml::NamePool::new();
        let c = pool.intern("c");
        let d = pool.intern("d");
        let sc = dag.add(Op::Step {
            input: ctx,
            axis: Axis::Child,
            test: NodeTest::Name(c),
        });
        let sd = dag.add(Op::Step {
            input: ctx,
            axis: Axis::Child,
            test: NodeTest::Name(d),
        });
        let u = dag.add(Op::Union { l: sc, r: sd });
        let dd = dag.add(Op::Distinct { input: u });
        let h = dag.add(Op::RowId {
            input: dd,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: h });
        let (new_root, _) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        assert_eq!(PlanStats::of(&dag, new_root).count("δ"), 0);

        // Same name test on both sides → results can overlap → δ stays.
        let u2 = dag.add(Op::Union { l: sc, r: sc });
        let dd2 = dag.add(Op::Distinct { input: u2 });
        let h2 = dag.add(Op::RowId {
            input: dd2,
            new: Col::POS,
        });
        let root2 = dag.add(Op::Serialize { input: h2 });
        let (new_root2, _) = try_optimize(&mut dag, root2, &OptOptions::default()).unwrap();
        assert_eq!(PlanStats::of(&dag, new_root2).count("δ"), 1);
    }

    #[test]
    fn trace_names_fired_rules() {
        // Same plan as `cda_removes_overwritten_rownum`: the trace must
        // name the dead-% bypass, and every entry must carry a round.
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM]);
        let rn = dag.add(Op::RowNum {
            input: src,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let proj = dag.add(Op::Project {
            input: rn,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        });
        let hash = dag.add(Op::RowId {
            input: proj,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: hash });
        let (_, report) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        assert!(report.fired("cda-bypass-rownum") >= 1, "{:?}", report.trace);
        assert!(report
            .trace
            .iter()
            .all(|a| a.round < OptOptions::default().max_rounds));
        // The disabled configuration fires nothing.
        let mut dag2 = Dag::new();
        let src2 = lit(&mut dag2, vec![Col::ITER, Col::ITEM]);
        let root2 = dag2.add(Op::RowId {
            input: src2,
            new: Col::POS,
        });
        let (_, report2) = try_optimize(&mut dag2, root2, &OptOptions::disabled()).unwrap();
        assert!(report2.trace.is_empty(), "{:?}", report2.trace);
    }

    /// The FN:UNORDERED pattern again, but with the dead-% bypass disabled
    /// by name: the % must survive and the trace must not record the rule.
    #[test]
    fn disabled_rule_does_not_fire() {
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITER, Col::ITEM]);
        let rn = dag.add(Op::RowNum {
            input: src,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let proj = dag.add(Op::Project {
            input: rn,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        });
        let hash = dag.add(Op::RowId {
            input: proj,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: hash });
        let opts = OptOptions::default().without_rule("cda-bypass-rownum");
        let (new_root, report) = try_optimize(&mut dag, root, &opts).unwrap();
        assert_eq!(report.fired("cda-bypass-rownum"), 0, "{:?}", report.trace);
        assert_eq!(PlanStats::of(&dag, new_root).rownums(), 1);
    }

    /// A top-level `collection()//e` plan: × and ⬡ over the `∪̂` of two
    /// fanouts must migrate beneath the union so each shard runs its own
    /// staircase join, while a one-part union collapses away entirely.
    #[test]
    fn shard_pushdown_moves_steps_below_union() {
        let mut dag = Dag::new();
        let lp = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        let f0 = dag.add(Op::Fanout {
            shard: 0,
            lo: 0,
            hi: 2,
        });
        let f1 = dag.add(Op::Fanout {
            shard: 1,
            lo: 2,
            hi: 4,
        });
        let u = dag.add(Op::ShardUnion {
            parts: vec![f0, f1],
        });
        let crossed = dag.add(Op::Cross { l: lp, r: u });
        let ii = dag.add(Op::Project {
            input: crossed,
            cols: vec![(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        });
        let step = dag.add(Op::Step {
            input: ii,
            axis: Axis::Child,
            test: NodeTest::Element,
        });
        let h = dag.add(Op::RowId {
            input: step,
            new: Col::POS,
        });
        let root = dag.add(Op::Serialize { input: h });
        let (new_root, report) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        assert!(report.fired("shard-push-cross") >= 1, "{:?}", report.trace);
        assert!(report.fired("shard-push-step") >= 1, "{:?}", report.trace);
        // Both shards got their own step, and the ∪̂ now sits above them.
        let reachable = dag.reachable(new_root);
        let steps = reachable
            .iter()
            .filter(|id| matches!(dag.op(**id), Op::Step { .. }))
            .count();
        assert_eq!(steps, 2, "one staircase join per shard");
        let union = reachable
            .iter()
            .find(|id| matches!(dag.op(**id), Op::ShardUnion { .. }))
            .expect("∪̂ survives");
        for part in dag.op(*union).children() {
            let below = dag.reachable(part);
            assert!(
                below
                    .iter()
                    .any(|id| matches!(dag.op(*id), Op::Step { .. })),
                "each ∪̂ part contains its shard's step"
            );
        }

        // A single-part union disappears outright.
        let mut dag2 = Dag::new();
        let f = dag2.add(Op::Fanout {
            shard: 0,
            lo: 0,
            hi: 4,
        });
        let u1 = dag2.add(Op::ShardUnion { parts: vec![f] });
        let h2 = dag2.add(Op::RowId {
            input: u1,
            new: Col::ITER,
        });
        let root2 = dag2.add(Op::Serialize { input: h2 });
        let (new_root2, report2) = try_optimize(&mut dag2, root2, &OptOptions::default()).unwrap();
        assert!(report2.fired("shard-union-singleton") >= 1);
        assert!(!dag2
            .reachable(new_root2)
            .iter()
            .any(|id| matches!(dag2.op(*id), Op::ShardUnion { .. })));
    }

    /// `rule-perturb:weaken-criteria` drops a *real* criterion — the
    /// planted optimizer bug attribution tests hunt. Disabling the
    /// perturbed rule restores soundness.
    #[test]
    fn perturbed_weaken_criteria_drops_real_criteria() {
        fn plan(dag: &mut Dag) -> OpId {
            let src = lit(dag, vec![Col::ITEM]);
            let rn = dag.add(Op::RowNum {
                input: src,
                new: Col::POS,
                order: vec![SortKey::asc(Col::ITEM)],
                part: None,
            });
            let proj = dag.add(Op::Project {
                input: rn,
                cols: vec![(Col::POS, Col::POS), (Col::ITEM, Col::ITEM)],
            });
            dag.add(Op::Serialize { input: proj })
        }
        // Unperturbed: the ITEM criterion is real, the % survives.
        let mut dag = Dag::new();
        let root = plan(&mut dag);
        let (clean_root, _) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        assert_eq!(PlanStats::of(&dag, clean_root).rownums(), 1);
        // Perturbed: every criterion dropped, the % degrades to a #.
        let mut dag = Dag::new();
        let root = plan(&mut dag);
        let (bad_root, report) = try_optimize_with(
            &mut dag,
            root,
            &OptOptions::default(),
            Some("weaken-criteria"),
        )
        .unwrap();
        assert_eq!(PlanStats::of(&dag, bad_root).rownums(), 0);
        assert!(report.fired("weaken-criteria") >= 1, "{:?}", report.trace);
        // Perturbed but with the rule disabled: soundness restored.
        let mut dag = Dag::new();
        let root = plan(&mut dag);
        let opts = OptOptions::default().without_rule("weaken-criteria");
        let (fixed_root, _) =
            try_optimize_with(&mut dag, root, &opts, Some("weaken-criteria")).unwrap();
        assert_eq!(PlanStats::of(&dag, fixed_root).rownums(), 1);
    }

    fn project(dag: &mut Dag, input: OpId, cols: &[(Col, Col)]) -> OpId {
        dag.add(Op::Project {
            input,
            cols: cols.to_vec(),
        })
    }

    fn equi(dag: &mut Dag, l: OpId, r: OpId, lcol: Col, rcol: Col) -> OpId {
        dag.add(Op::EquiJoin { l, r, lcol, rcol })
    }

    fn count_ops(dag: &Dag, root: OpId, pred: impl Fn(&Op) -> bool) -> usize {
        dag.reachable(root)
            .into_iter()
            .filter(|id| pred(dag.op(*id)))
            .count()
    }

    fn is_join(op: &Op) -> bool {
        matches!(op, Op::EquiJoin { .. })
    }

    /// `serialize(π pos:iter,item (q))` — demands `iter` and `item` of `q`.
    fn demand_iter_item(dag: &mut Dag, q: OpId) -> OpId {
        let top = project(dag, q, &[(Col::POS, Col::ITER), (Col::ITEM, Col::ITEM)]);
        dag.add(Op::Serialize { input: top })
    }

    /// The Q11 map-join chain between `⋈θ` and `Count‖iter`, as
    /// loop-lifting emits it: two joins carry the θ pairs back to the
    /// outer and inner loop keys, a `#` renumbers them, three more joins
    /// map the new numbering to itself, to its `outer|inner` map and back
    /// to the outer loop. All of it re-derives the `iter` column the θ
    /// pairs already had.
    #[test]
    fn q11_map_join_chain_disappears() {
        let mut dag = Dag::new();
        let persons = lit(&mut dag, vec![Col::ITEM]);
        let outer = dag.add(Op::RowId {
            input: persons,
            new: Col::BIND,
        });
        let outer_key = project(&mut dag, outer, &[(Col::ITER1, Col::BIND)]);
        let ctx = project(
            &mut dag,
            outer,
            &[(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
        );
        let ctx = equi(&mut dag, ctx, outer_key, Col::ITER, Col::ITER1);
        let ctx = project(
            &mut dag,
            ctx,
            &[(Col::ITER, Col::ITER), (Col::ITEM, Col::ITEM)],
        );
        let income = dag.add(Op::Step {
            input: ctx,
            axis: Axis::Child,
            test: NodeTest::Element,
        });
        let left = project(
            &mut dag,
            income,
            &[(Col::ITER, Col::ITER), (Col::ITEM1, Col::ITEM)],
        );
        let auctions = lit(&mut dag, vec![Col::ITEM2]);
        let inner = dag.add(Op::RowId {
            input: auctions,
            new: Col::BIND,
        });
        let inner_key = project(&mut dag, inner, &[(Col::ITER1, Col::BIND)]);
        let right = project(
            &mut dag,
            inner,
            &[(Col::BIND, Col::BIND), (Col::ITEM2, Col::ITEM2)],
        );
        let theta = dag.add(Op::ThetaJoin {
            l: left,
            r: right,
            pred: vec![(Col::ITEM1, exrquy_algebra::FunKind::Gt, Col::ITEM2)],
        });
        let pairs = [(Col::ITER, Col::ITER), (Col::BIND, Col::BIND)];
        let q = project(&mut dag, theta, &pairs);
        let q = equi(&mut dag, q, outer_key, Col::ITER, Col::ITER1);
        let q = project(&mut dag, q, &pairs);
        let q = equi(&mut dag, q, inner_key, Col::BIND, Col::ITER1);
        let numbered = dag.add(Op::RowId {
            input: q,
            new: Col::POS1,
        });
        let a = project(&mut dag, numbered, &[(Col::ITER, Col::POS1)]);
        let b = project(&mut dag, numbered, &[(Col::ITER1, Col::POS1)]);
        let q = equi(&mut dag, a, b, Col::ITER, Col::ITER1);
        let q = project(&mut dag, q, &[(Col::ITER1, Col::ITER)]);
        let map = project(
            &mut dag,
            numbered,
            &[(Col::OUTER, Col::ITER), (Col::INNER, Col::POS1)],
        );
        let q = equi(&mut dag, q, map, Col::ITER1, Col::INNER);
        let q = project(&mut dag, q, &[(Col::ITER, Col::OUTER)]);
        let q = equi(&mut dag, q, outer_key, Col::ITER, Col::ITER1);
        let q = project(&mut dag, q, &[(Col::ITER, Col::ITER)]);
        let count = dag.add(Op::Aggr {
            input: q,
            kind: exrquy_algebra::AggrKind::Count,
            new: Col::ITEM,
            arg: None,
            part: Some(Col::ITER),
        });
        let root = demand_iter_item(&mut dag, count);
        assert_eq!(count_ops(&dag, root, is_join), 6);

        let (new_root, report) = try_optimize(&mut dag, root, &OptOptions::default()).unwrap();
        assert_eq!(count_ops(&dag, new_root, is_join), 0, "{:?}", report.trace);
        assert!(
            report.fired("join-elim-key-domain") >= 3,
            "{:?}",
            report.trace
        );
        assert!(report.fired("join-self-key") >= 1, "{:?}", report.trace);
        // The pair renumbering went with its consumers, the inner loop's
        // `bind` with the join that read it; `iter` still comes from the
        // outer loop's `#`.
        let rowids = |op: &Op| matches!(op, Op::RowId { .. });
        assert_eq!(count_ops(&dag, new_root, rowids), 1, "{:?}", report.trace);
        // Count‖iter now reads π iter (⋈θ) directly.
        let Some(Op::Aggr { input, .. }) = dag
            .reachable(new_root)
            .into_iter()
            .map(|id| dag.op(id))
            .find(|op| matches!(op, Op::Aggr { .. }))
        else {
            panic!("count survives");
        };
        let Op::Project { input, cols } = dag.op(*input) else {
            panic!("π iter");
        };
        assert_eq!(cols, &[(Col::ITER, Col::ITER)]);
        assert!(matches!(dag.op(*input), Op::ThetaJoin { .. }));

        // Each rule is individually disableable through the `RuleSet`.
        for rule in ["join-elim-key-domain", "join-self-key"] {
            let opts = OptOptions::default().without_rule(rule);
            let (r, report) = try_optimize(&mut dag, root, &opts).unwrap();
            assert_eq!(report.fired(rule), 0);
            assert!(
                count_ops(&dag, r, is_join) > 0,
                "{rule} off: {:?}",
                report.trace
            );
        }
    }

    /// One map join `l ⋈ iter=iter1 r` under a consumer of `iter`/`item`;
    /// the callers vary what makes it (not) an identity.
    fn assert_join_survives(dag: &mut Dag, l: OpId, r: OpId, extra: &[(Col, Col)]) {
        let j = equi(dag, l, r, Col::ITER, Col::ITER1);
        let mut cols = vec![(Col::POS, Col::ITER), (Col::ITEM, Col::ITEM)];
        cols.extend_from_slice(extra);
        let top = project(dag, j, &cols);
        let root = dag.add(Op::Distinct { input: top });
        let (new_root, report) = try_optimize(dag, root, &OptOptions::default()).unwrap();
        assert_eq!(
            report.fired("join-elim-key-domain"),
            0,
            "{:?}",
            report.trace
        );
        assert_eq!(report.fired("join-self-key"), 0, "{:?}", report.trace);
        assert_eq!(count_ops(dag, new_root, is_join), 1);
    }

    /// `# bind` over `[item, res]`, its `iter|item` view and its key-only
    /// view.
    fn loop_views(dag: &mut Dag) -> (OpId, OpId, OpId) {
        let src = lit(dag, vec![Col::ITEM, Col::RES]);
        let h = dag.add(Op::RowId {
            input: src,
            new: Col::BIND,
        });
        let view = project(dag, h, &[(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)]);
        let key = project(dag, h, &[(Col::ITER1, Col::BIND)]);
        (h, view, key)
    }

    #[test]
    fn join_against_a_filtered_key_survives() {
        // A σ between the origin and the key side: a strict subset, so
        // some left rows lose their partner.
        let mut dag = Dag::new();
        let (h, view, _) = loop_views(&mut dag);
        let sel = dag.add(Op::Select {
            input: h,
            col: Col::RES,
        });
        let key = project(&mut dag, sel, &[(Col::ITER1, Col::BIND)]);
        assert_join_survives(&mut dag, view, key, &[]);
    }

    #[test]
    fn join_whose_key_side_carries_a_required_column_survives() {
        // `r` contributes `item2` to the consumer — and it is not a
        // projection of the same operator as `l`, so neither rule applies.
        let mut dag = Dag::new();
        let (h, view, _) = loop_views(&mut dag);
        let step = dag.add(Op::Step {
            input: view,
            axis: Axis::Child,
            test: NodeTest::Element,
        });
        let r = project(
            &mut dag,
            h,
            &[(Col::ITER1, Col::BIND), (Col::ITEM2, Col::RES)],
        );
        assert_join_survives(&mut dag, step, r, &[(Col::ITEM2, Col::ITEM2)]);
    }

    #[test]
    fn join_against_a_partitioned_rownum_survives() {
        // `%…‖res` restarts per group: its numbers are not a key.
        let mut dag = Dag::new();
        let src = lit(&mut dag, vec![Col::ITEM, Col::RES]);
        let rn = dag.add(Op::RowNum {
            input: src,
            new: Col::BIND,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::RES),
        });
        let view = project(
            &mut dag,
            rn,
            &[(Col::ITER, Col::BIND), (Col::ITEM, Col::ITEM)],
        );
        let key = project(&mut dag, rn, &[(Col::ITER1, Col::BIND)]);
        assert_join_survives(&mut dag, view, key, &[]);
    }

    #[test]
    fn join_under_a_union_of_two_origins_survives() {
        let mut dag = Dag::new();
        let (_, view, key) = loop_views(&mut dag);
        let other = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::ITEM],
            rows: vec![vec![AValue::Int(7), AValue::Int(8)]],
        });
        let l = dag.add(Op::Union { l: view, r: other });
        assert_join_survives(&mut dag, l, key, &[]);
    }

    #[test]
    fn join_between_two_different_numberings_survives() {
        // Both columns are `#` keys over the same rows — physically the
        // same numbers, but nothing the analysis may assume.
        let mut dag = Dag::new();
        let (h, view, _) = loop_views(&mut dag);
        let Op::RowId { input: src, .. } = *dag.op(h) else {
            unreachable!()
        };
        let h2 = dag.add(Op::RowId {
            input: src,
            new: Col::POS1,
        });
        let key = project(&mut dag, h2, &[(Col::ITER1, Col::POS1)]);
        assert_join_survives(&mut dag, view, key, &[]);
    }

    /// `rule-perturb:join-elim-key-domain` accepts a key side that lost
    /// rows since its origin; disabling the rule restores soundness.
    #[test]
    fn perturbed_join_elim_accepts_a_filtered_key() {
        fn plan(dag: &mut Dag) -> OpId {
            let (h, view, _) = loop_views(dag);
            let sel = dag.add(Op::Select {
                input: h,
                col: Col::RES,
            });
            let key = project(dag, sel, &[(Col::ITER1, Col::BIND)]);
            let j = equi(dag, view, key, Col::ITER, Col::ITER1);
            demand_iter_item(dag, j)
        }
        const RULE: &str = "join-elim-key-domain";
        let mut dag = Dag::new();
        let root = plan(&mut dag);
        let (bad, report) =
            try_optimize_with(&mut dag, root, &OptOptions::default(), Some(RULE)).unwrap();
        assert_eq!(count_ops(&dag, bad, is_join), 0);
        assert_eq!(report.fired(RULE), 1, "{:?}", report.trace);
        let opts = OptOptions::default().without_rule(RULE);
        let (fixed, _) = try_optimize_with(&mut dag, root, &opts, Some(RULE)).unwrap();
        assert_eq!(count_ops(&dag, fixed, is_join), 1);
    }
}
