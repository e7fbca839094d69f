//! Per-operator-kind execution profiling.
//!
//! The paper's Table 2 breaks Q11's execution time down by plan phase
//! (path steps, atomization/arithmetic, join, the `iter→seq` reorder,
//! element construction, `fn:count`). Those phases correspond 1:1 to
//! operator kinds in our plans, so profiling by kind regenerates the
//! table.

use exrquy_algebra::{Dag, Op, OpId};
use std::collections::BTreeMap;
use std::time::Duration;

/// Work-stealing scheduler counters of one execution. All zero under
/// serial execution; under parallel execution they make queue pressure
/// and steal traffic visible, so scheduler regressions show up as
/// counts rather than only in wall-clock noise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Parallel regions that spun up a worker pool.
    pub regions: u64,
    /// Operators evaluated inside worker pools.
    pub par_ops: u64,
    /// Operators evaluated inline on single-ready linear stretches.
    pub inline_ops: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// High-water mark of simultaneously outstanding ready tasks.
    pub queue_peak: u64,
}

impl SchedStats {
    /// Fold another execution's counters into this one (sums; the queue
    /// high-water mark takes the max).
    pub fn merge(&mut self, other: &SchedStats) {
        self.regions += other.regions;
        self.par_ops += other.par_ops;
        self.inline_ops += other.inline_ops;
        self.steals += other.steals;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
    }
}

/// Plan-shape counters of one execution: how many slots ran and how
/// much of the plan went through fused single-pass chains (none on the
/// scalar arm or with failpoints armed), reported by `--explain`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VecStats {
    /// Slots in the flattened physical plan.
    pub phys_slots: u64,
    /// Fused select→fun→project chains executed.
    pub fused_chains: u64,
    /// Logical operators absorbed into fused chains.
    pub fused_ops: u64,
}

impl VecStats {
    /// Fold another execution's counters into this one.
    pub fn merge(&mut self, other: &VecStats) {
        self.phys_slots += other.phys_slots;
        self.fused_chains += other.fused_chains;
        self.fused_ops += other.fused_ops;
    }
}

/// Aggregated wall-clock per operator kind and per operator instance.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    per_kind: BTreeMap<&'static str, Duration>,
    per_op: BTreeMap<u32, Duration>,
    /// Output row count per operator instance (the *actual* cardinality
    /// that `--explain` reports next to the planner's estimate). Fused
    /// chains record only their final operator; absorbed members have no
    /// entry.
    per_op_rows: BTreeMap<u32, u64>,
    total: Duration,
    /// Scheduler counters (parallel executions only; zero when serial).
    pub sched: SchedStats,
    /// Plan-shape counters (slots run, fused chains, absorbed ops).
    pub vec: VecStats,
}

/// Phase names used by the Table 2 reproduction.
pub const PHASES: &[&str] = &[
    "path steps",
    "atomization & arithmetic",
    "join",
    "iter→seq reorder (%)",
    "node construction",
    "aggregation",
    "other",
];

impl Profile {
    /// Record `d` spent in `op`.
    pub fn record(&mut self, dag: &Dag, op: OpId, d: Duration) {
        *self
            .per_kind
            .entry(dag.op(op).kind_name())
            .or_insert(Duration::ZERO) += d;
        *self.per_op.entry(op.0).or_insert(Duration::ZERO) += d;
        self.total += d;
    }

    /// Record the output row count of `op` (latest execution wins).
    pub fn record_rows(&mut self, op: OpId, nrows: usize) {
        self.per_op_rows.insert(op.0, nrows as u64);
    }

    /// Observed output row count of `op`, if it was executed.
    pub fn op_rows(&self, op: OpId) -> Option<u64> {
        self.per_op_rows.get(&op.0).copied()
    }

    /// All observed output row counts, keyed by raw operator id.
    pub fn rows(&self) -> &BTreeMap<u32, u64> {
        &self.per_op_rows
    }

    /// Fold another profile into this one (parallel workers each record
    /// into a private profile; the scheduler merges them when the region
    /// joins).
    pub fn merge(&mut self, other: &Profile) {
        for (kind, d) in &other.per_kind {
            *self.per_kind.entry(kind).or_insert(Duration::ZERO) += *d;
        }
        for (op, d) in &other.per_op {
            *self.per_op.entry(*op).or_insert(Duration::ZERO) += *d;
        }
        for (op, n) in &other.per_op_rows {
            self.per_op_rows.insert(*op, *n);
        }
        self.total += other.total;
        self.sched.merge(&other.sched);
        self.vec.merge(&other.vec);
    }

    /// Total recorded time.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Time per operator kind.
    pub fn per_kind(&self) -> &BTreeMap<&'static str, Duration> {
        &self.per_kind
    }

    /// Time spent in a single operator.
    pub fn op_time(&self, op: OpId) -> Duration {
        self.per_op.get(&op.0).copied().unwrap_or(Duration::ZERO)
    }

    /// Classify an operator into a Table 2 phase.
    pub fn phase_of(op: &Op) -> &'static str {
        match op {
            Op::Step { .. } | Op::Doc { .. } | Op::Fanout { .. } => "path steps",
            Op::Fun { .. } => "atomization & arithmetic",
            Op::EquiJoin { .. } | Op::ThetaJoin { .. } | Op::Cross { .. } => "join",
            Op::RowNum { .. } => "iter→seq reorder (%)",
            Op::Element { .. } | Op::Attr { .. } | Op::TextNode { .. } => "node construction",
            Op::Aggr { .. } => "aggregation",
            _ => "other",
        }
    }

    /// Aggregate recorded times into Table 2 phases.
    pub fn by_phase(&self, dag: &Dag) -> BTreeMap<&'static str, Duration> {
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (op_raw, d) in &self.per_op {
            let phase = Self::phase_of(dag.op(OpId(*op_raw)));
            *out.entry(phase).or_insert(Duration::ZERO) += *d;
        }
        out
    }

    /// Render the Table 2-style breakdown.
    pub fn render_breakdown(&self, dag: &Dag) -> String {
        use std::fmt::Write;
        let phases = self.by_phase(dag);
        let total: Duration = self.total.max(Duration::from_nanos(1));
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>12} {:>7}", "Phase", "Time [ms]", "%");
        for name in PHASES {
            if let Some(d) = phases.get(name) {
                let _ = writeln!(
                    out,
                    "{:<28} {:>12.3} {:>6.1}%",
                    name,
                    d.as_secs_f64() * 1e3,
                    100.0 * d.as_secs_f64() / total.as_secs_f64()
                );
            }
        }
        let _ = writeln!(out, "{:<28} {:>12.3}", "total", total.as_secs_f64() * 1e3);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_algebra::{AValue, Col};

    #[test]
    fn records_and_aggregates() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        let r = dag.add(Op::RowNum {
            input: l,
            new: Col::POS,
            order: vec![],
            part: None,
        });
        let mut p = Profile::default();
        p.record(&dag, l, Duration::from_millis(2));
        p.record(&dag, r, Duration::from_millis(3));
        p.record(&dag, r, Duration::from_millis(1));
        assert_eq!(p.total(), Duration::from_millis(6));
        assert_eq!(p.op_time(r), Duration::from_millis(4));
        let phases = p.by_phase(&dag);
        assert_eq!(
            phases.get("iter→seq reorder (%)"),
            Some(&Duration::from_millis(4))
        );
        let txt = p.render_breakdown(&dag);
        assert!(txt.contains("iter→seq reorder"));
    }
}
