//! Structural AST minimization of diverging queries.
//!
//! Given a query the differential oracle rejects (EXRQ0004), the shrinker
//! searches for the smallest still-diverging query by proposing local
//! simplifications — hoist a child over its parent, drop a FLWOR clause,
//! prune a sequence arm, delete a predicate or `order by` key, replace a
//! whole subtree with `()` — and keeping the first candidate whose
//! pretty-printed text *re-parses* and still diverges (the caller's
//! `probe` says so — the three-way oracle for the fuzzer, a
//! row-versus-reference comparison for the lattice). Candidates that break scoping (e.g. dropping the `for` that
//! binds `$v`) are filtered out for free: every oracle arm fails with the
//! same compile error, which is not a divergence, so the candidate is
//! rejected.
//!
//! Progress is measured by a syntactic [`weight`] that strictly decreases
//! on every accepted step, so the greedy fixpoint terminates; the probe
//! budget bounds the worst case besides. A fully corrupted oracle (the
//! `oracle-perturb` failpoint, where *every* query diverges) shrinks all
//! the way down to `()` — weight 1 — which is the documented bound the
//! acceptance tests pin.

use exrquy::frontend::{parse_module, pretty, Clause, Expr};

/// Outcome of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized expression (re-parsed from its own pretty-printing,
    /// so `text` and `expr` are guaranteed consistent).
    pub expr: Expr,
    /// `pretty(expr)` — what reports should display.
    pub text: String,
    /// Syntactic weight of the minimized expression.
    pub weight: usize,
    /// Oracle probes spent.
    pub probes: usize,
}

/// Syntactic weight of an expression: one per AST node, plus one per
/// `at $p` positional variable, element-constructor attribute, and
/// literal text part — the droppable non-`Expr` syntax the shrinker also
/// minimizes. Every accepted shrink step strictly decreases this.
pub fn weight(e: &Expr) -> usize {
    let mut w = 1;
    match e {
        Expr::Flwor { clauses, .. } => {
            for c in clauses {
                // A clause is syntax of its own (its sub-expression is
                // counted by the child walk below).
                w += 1;
                if let Clause::For {
                    pos_var: Some(_), ..
                } = c
                {
                    w += 1;
                }
            }
        }
        Expr::DirElement { attrs, content, .. } => {
            w += attrs.len();
            w += content
                .iter()
                .filter(|c| matches!(c, exrquy::frontend::ElemContent::Text(_)))
                .count();
        }
        _ => {}
    }
    e.for_each_child(|c| w += weight(c));
    w
}

/// Minimize `expr` (for whose text `probe` answers "still diverges") to
/// a smaller still-diverging query. Greedy first-improvement loop to a
/// fixpoint, spending at most `max_probes` probe calls.
pub fn shrink(
    expr: &Expr,
    max_probes: usize,
    mut probe: impl FnMut(&str) -> bool,
) -> ShrinkOutcome {
    let mut current = expr.clone();
    let mut current_weight = weight(&current);
    let mut probes = 0;
    'outer: loop {
        let mut cands = candidates(&current);
        // Smallest first: when the divergence is insensitive to the query
        // (a corrupted oracle arm), the first probe already lands on `()`.
        cands.sort_by_key(weight);
        for cand in cands {
            if weight(&cand) >= current_weight {
                continue;
            }
            if probes >= max_probes {
                break 'outer;
            }
            let text = pretty(&cand);
            // The candidate must survive the print→parse round trip: the
            // minimized artifact is *text* (for reports and regression
            // cases), so only candidates reproducible from text count.
            let Ok(module) = parse_module(&text) else {
                continue;
            };
            probes += 1;
            if probe(&text) {
                current = module.body;
                current_weight = weight(&current);
                continue 'outer;
            }
        }
        break;
    }
    let text = pretty(&current);
    ShrinkOutcome {
        weight: current_weight,
        expr: current,
        text,
        probes,
    }
}

/// All one-step simplifications of `expr`: for every node in the tree,
/// its local variants spliced back into a copy of the whole expression.
fn candidates(expr: &Expr) -> Vec<Expr> {
    let mut per_node = Vec::new();
    let mut counter = 0;
    collect(expr, &mut counter, &mut per_node);
    let mut out = Vec::new();
    for (idx, variants) in per_node {
        for v in variants {
            out.push(replace_at(expr, idx, v));
        }
    }
    out
}

/// Pre-order numbering paired with each node's local variants.
fn collect(e: &Expr, counter: &mut usize, out: &mut Vec<(usize, Vec<Expr>)>) {
    let idx = *counter;
    *counter += 1;
    let vars = local_variants(e);
    if !vars.is_empty() {
        out.push((idx, vars));
    }
    e.for_each_child(|c| collect(c, counter, out));
}

/// Clone of `root` with pre-order node `target` replaced by `v`. The
/// numbering matches [`collect`] because `for_each_child_mut` visits
/// children in the same order as `for_each_child`.
fn replace_at(root: &Expr, target: usize, v: Expr) -> Expr {
    let mut out = root.clone();
    let mut counter = 0;
    let mut replacement = Some(v);
    splice(&mut out, &mut counter, target, &mut replacement);
    out
}

fn splice(e: &mut Expr, counter: &mut usize, target: usize, replacement: &mut Option<Expr>) {
    if replacement.is_none() {
        return;
    }
    if *counter == target {
        *e = replacement.take().unwrap();
        return;
    }
    *counter += 1;
    e.for_each_child_mut(|c| splice(c, counter, target, replacement));
}

/// Local simplifications of one node: each direct child hoisted over the
/// node, structure-specific deletions, and `()` for any composite node.
/// Scope-breaking proposals are fine — the oracle probe rejects them.
fn local_variants(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    let leaf = matches!(
        e,
        Expr::IntLit(_)
            | Expr::DblLit(_)
            | Expr::StrLit(_)
            | Expr::Empty
            | Expr::Var(_)
            | Expr::ContextItem
            | Expr::Root
    );
    if leaf {
        return out;
    }
    out.push(Expr::Empty);
    // Hoist every direct child over the node.
    e.for_each_child(|c| out.push(c.clone()));
    match e {
        Expr::Sequence(items) => {
            for i in 0..items.len() {
                let mut rest = items.clone();
                rest.remove(i);
                out.push(if rest.len() == 1 {
                    rest.pop().unwrap()
                } else {
                    Expr::Sequence(rest)
                });
            }
        }
        Expr::PathStep {
            input, predicates, ..
        } => {
            for i in 0..predicates.len() {
                let mut e2 = e.clone();
                if let Expr::PathStep { predicates: p, .. } = &mut e2 {
                    p.remove(i);
                }
                out.push(e2);
            }
            // Drop the final step, keeping its input chain.
            out.push((**input).clone());
        }
        Expr::Flwor {
            clauses, order_by, ..
        } => {
            for i in 0..clauses.len() {
                let mut e2 = e.clone();
                if let Expr::Flwor { clauses: c, .. } = &mut e2 {
                    c.remove(i);
                }
                out.push(e2);
            }
            for (i, c) in clauses.iter().enumerate() {
                if matches!(
                    c,
                    Clause::For {
                        pos_var: Some(_),
                        ..
                    }
                ) {
                    let mut e2 = e.clone();
                    if let Expr::Flwor { clauses: cs, .. } = &mut e2 {
                        if let Clause::For { pos_var, .. } = &mut cs[i] {
                            *pos_var = None;
                        }
                    }
                    out.push(e2);
                }
            }
            for i in 0..order_by.len() {
                let mut e2 = e.clone();
                if let Expr::Flwor { order_by: o, .. } = &mut e2 {
                    o.remove(i);
                }
                out.push(e2);
            }
        }
        Expr::DirElement { attrs, content, .. } => {
            for i in 0..attrs.len() {
                let mut e2 = e.clone();
                if let Expr::DirElement { attrs: a, .. } = &mut e2 {
                    a.remove(i);
                }
                out.push(e2);
            }
            for i in 0..content.len() {
                let mut e2 = e.clone();
                if let Expr::DirElement { content: c, .. } = &mut e2 {
                    c.remove(i);
                }
                out.push(e2);
            }
        }
        Expr::Call { name, args } if args.len() > 1 => {
            for i in 0..args.len() {
                let mut rest = args.clone();
                rest.remove(i);
                out.push(Expr::Call {
                    name: name.clone(),
                    args: rest,
                });
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{oracle_diverges, Corpus, FuzzProfile};
    use exrquy::diag::Failpoints;

    const DOC: &str = r#"<r><a id="3"/><a id="1"/><a id="2"/></r>"#;

    fn parse(q: &str) -> Expr {
        parse_module(q).unwrap().body
    }

    #[test]
    fn weight_counts_droppable_syntax() {
        // for $x at $p in //a return $x — at-var adds 1, clause adds 1.
        let with_at = parse(r#"for $x at $p in doc("f.xml")//a return $x"#);
        let without = parse(r#"for $x in doc("f.xml")//a return $x"#);
        assert_eq!(weight(&with_at), weight(&without) + 1);
        assert!(weight(&parse("()")) == 1);
    }

    #[test]
    fn candidates_strictly_include_hoists_and_unit() {
        let e = parse(r#"fn:count(doc("f.xml")//a) + 1"#);
        let cands = candidates(&e);
        assert!(cands.contains(&Expr::Empty));
        assert!(cands.iter().any(|c| weight(c) < weight(&e)));
        // Hoisting the left operand over the binary is proposed.
        assert!(cands.contains(&parse(r#"fn:count(doc("f.xml")//a)"#)));
    }

    #[test]
    fn corrupted_oracle_shrinks_to_unit() {
        // oracle-perturb corrupts the optimized arm's rendered result, so
        // *every* query diverges — the minimum is `()`, weight 1.
        let opts = FuzzProfile::Unordered
            .options()
            .with_failpoints(Failpoints::parse("oracle-perturb:optimized").unwrap());
        let e = parse(
            r#"for $x in doc("f.xml")//a order by $x/attribute::id return fn:string($x/attribute::id)"#,
        );
        let corpus = Corpus::single(DOC);
        assert!(oracle_diverges(&corpus, &pretty(&e), &opts));
        let out = shrink(&e, 300, |text| oracle_diverges(&corpus, text, &opts));
        assert_eq!(out.text, "()", "minimized to `{}`", out.text);
        assert_eq!(out.weight, 1);
        assert!(out.probes > 0);
    }
}
