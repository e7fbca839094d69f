//! Minimized structural diffing of two plans, used by the differential
//! oracle to explain *where* an optimized plan departs from its reference
//! when their results diverge.
//!
//! The diff is deliberately shallow: a lockstep depth-first walk of both
//! plans that records the path to the first mismatch on each branch and
//! then stops descending. A full tree diff of two 200-operator plans is
//! unreadable; the first structural departure per branch is what a human
//! needs to start debugging a rewrite.

use crate::dag::{Dag, OpId};
use crate::op::Op;
use crate::stats::PlanStats;
use std::collections::HashSet;
use std::fmt;

/// Cap on recorded divergences — beyond this the plans are simply
/// "very different" and more entries add noise, not signal.
const MAX_DIVERGENCES: usize = 8;

/// Result of diffing two plans.
#[derive(Debug, Clone, Default)]
pub struct PlanDiff {
    /// Census of the left plan.
    pub left: PlanStats,
    /// Census of the right plan.
    pub right: PlanStats,
    /// Human-readable divergence records (path → what differs), minimized:
    /// one entry per branch where the plans first depart, capped at
    /// `MAX_DIVERGENCES` (8).
    pub divergences: Vec<String>,
}

impl PlanDiff {
    /// True when the walk found no structural difference.
    pub fn is_structurally_equal(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for PlanDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "left:  {}", self.left)?;
        writeln!(f, "right: {}", self.right)?;
        if self.divergences.is_empty() {
            write!(f, "plans are structurally identical")
        } else {
            write!(f, "first structural divergences:")?;
            for d in &self.divergences {
                write!(f, "\n  {d}")?;
            }
            Ok(())
        }
    }
}

/// Diff the plan rooted at `ra` in `a` against the plan rooted at `rb` in
/// `b`. The two roots may live in different DAGs (the oracle compiles each
/// arm separately).
pub fn plan_diff(a: &Dag, ra: OpId, b: &Dag, rb: OpId) -> PlanDiff {
    let mut diff = PlanDiff {
        left: PlanStats::of(a, ra),
        right: PlanStats::of(b, rb),
        divergences: Vec::new(),
    };
    // Lockstep pairs already visited — shared subplans would otherwise be
    // re-reported once per parent.
    let mut seen: HashSet<(OpId, OpId)> = HashSet::new();
    let mut stack: Vec<(OpId, OpId, String)> = vec![(ra, rb, "root".to_string())];
    while let Some((la, lb, path)) = stack.pop() {
        if diff.divergences.len() >= MAX_DIVERGENCES {
            diff.divergences
                .push("… (further divergences elided)".to_string());
            break;
        }
        if !seen.insert((la, lb)) {
            continue;
        }
        let (oa, ob) = (a.op(la), b.op(lb));
        let (ka, kb) = (oa.kind_name(), ob.kind_name());
        if ka != kb {
            diff.divergences
                .push(format!("{path}: `{ka}` ({la}) vs `{kb}` ({lb})"));
            continue; // minimized: do not descend past a kind mismatch
        }
        if let (Op::Element { twig: ta, .. }, Op::Element { twig: tb, .. }) = (oa, ob) {
            if ta != tb {
                let (ta, tb) = (ta.label(), tb.label());
                diff.divergences.push(format!(
                    "{path}: `elem⟨{ta}⟩` ({la}) vs `elem⟨{tb}⟩` ({lb})"
                ));
            }
        }
        let (ca, cb) = (oa.children(), ob.children());
        if ca.len() != cb.len() {
            diff.divergences.push(format!(
                "{path}: `{ka}` arity {} ({la}) vs {} ({lb})",
                ca.len(),
                cb.len()
            ));
            continue;
        }
        for (i, (xa, xb)) in ca.iter().zip(cb.iter()).enumerate() {
            stack.push((*xa, *xb, format!("{path}/{ka}.{i}")));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::col::Col;
    use crate::op::SortKey;
    use crate::value::AValue;

    fn base(dag: &mut Dag) -> OpId {
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        dag.add(Op::Attach {
            input: l,
            col: Col::ITEM,
            value: AValue::Int(7),
        })
    }

    #[test]
    fn identical_plans_have_no_divergence() {
        let mut a = Dag::new();
        let ra = base(&mut a);
        let mut b = Dag::new();
        let rb = base(&mut b);
        let d = plan_diff(&a, ra, &b, rb);
        assert!(d.is_structurally_equal());
        assert_eq!(d.left, d.right);
        assert!(d.to_string().contains("structurally identical"));
    }

    #[test]
    fn kind_mismatch_is_reported_once_and_walk_stops() {
        // Left numbers with a sorting %, right with an arbitrary #: the
        // paper's central rewrite, and exactly what the oracle needs the
        // diff to point at.
        let mut a = Dag::new();
        let ia = base(&mut a);
        let ra = a.add(Op::RowNum {
            input: ia,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: None,
        });
        let mut b = Dag::new();
        let ib = base(&mut b);
        let rb = b.add(Op::RowId {
            input: ib,
            new: Col::POS,
        });
        let d = plan_diff(&a, ra, &b, rb);
        assert_eq!(d.divergences.len(), 1);
        assert!(d.divergences[0].contains('%'));
        assert!(d.divergences[0].contains('#'));
        assert_eq!(d.left.rownums(), 1);
        assert_eq!(d.right.rowids(), 1);
    }

    #[test]
    fn divergence_path_names_the_branch() {
        let mut a = Dag::new();
        let ia = base(&mut a);
        let ra = a.add(Op::Select {
            input: ia,
            col: Col::ITEM,
        });
        let mut b = Dag::new();
        let lb = b.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        let ab = b.add(Op::Attach {
            input: lb,
            col: Col::ITEM,
            value: AValue::Int(9),
        });
        let rb = b.add(Op::Select {
            input: ab,
            col: Col::ITEM,
        });
        // Roots agree (σ over attach over lit) but the attach payload
        // differs; kind/arity walk alone cannot see payload differences,
        // so this diff is empty — the oracle relies on result comparison
        // for value-level divergence and on the diff only for structure.
        let d = plan_diff(&a, ra, &b, rb);
        assert!(d.is_structurally_equal());
    }
}
