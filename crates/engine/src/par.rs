//! Work-stealing intra-query scheduler over a flattened [`PhysPlan`].
//!
//! [`run`] is what [`Engine::eval_plan`] calls instead of its serial
//! loop when `threads > 1`. It reads the plan directly — `plan.ops[i]`,
//! its [`args`](exrquy_algebra::PhysOp::args) and the shared slot
//! vector — and executes every slot through the same
//! [`run_slot`](crate::eval::run_slot) as the serial loop, so serial and
//! parallel runs produce bit-identical tables (the differential suites
//! assert this).
//!
//! Independent pure slots evaluate concurrently; every node-constructing
//! ("writer") slot is pinned to the main thread, in exactly the serial
//! slot sequence — the single-writer rule. Fragment ids and interned
//! name ids are handed out in the same order as a serial run.
//!
//! Shape of the loop: alternate
//!
//! 1. a **parallel region** draining every ready pure slot through
//!    per-worker deques with work stealing (a finished slot releases its
//!    parents; newly ready pure parents go onto the finishing worker's
//!    own deque), and
//! 2. a **writer phase** executing ready writers on the main thread with
//!    `&mut FragArena`.
//!
//! Termination: after a region drains, the earliest unfinished slot has
//! all operands finished; the region would have consumed it if it were
//! pure, so it is the next writer in sequence (or the root is done). The
//! loop therefore always progresses.
//!
//! Budget charging, cancellation polls, and failpoint polls go through
//! the shared atomic [`BudgetMeter`] — those are the yield points.
//! Failpoint trip *placement* is racy under parallel completion order
//! (the counters are global), but the error paths taken are the same.

use crate::eval::{
    is_writer, run_slot, ArenaAccess, Engine, EngineOptions, EvalError, Slot, SlotCx,
};
use crate::profile::{Profile, SchedStats};
use exrquy_algebra::PhysPlan;
use exrquy_diag::BudgetMeter;
use exrquy_xml::FragArena;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shared atomic scheduler counters of one execution, snapshotted into
/// [`SchedStats`] when the run completes.
#[derive(Default)]
struct SchedCounters {
    regions: AtomicU64,
    par_ops: AtomicU64,
    inline_ops: AtomicU64,
    steals: AtomicU64,
    queue_peak: AtomicU64,
}

impl SchedCounters {
    fn note_queue_depth(&self, depth: usize) {
        self.queue_peak.fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SchedStats {
        SchedStats {
            regions: self.regions.load(Ordering::Relaxed),
            par_ops: self.par_ops.load(Ordering::Relaxed),
            inline_ops: self.inline_ops.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
        }
    }
}

// Everything a worker touches must cross the scope boundary.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<FragArena>();
    assert_sync::<EngineOptions>();
    assert_sync::<BudgetMeter>();
    assert_send::<EvalError>();
    assert_send::<Profile>();
};

/// Dependency state of one execution, one entry per plan slot.
struct Deps {
    /// Node-constructing slots: run by the main thread only.
    writer: Vec<bool>,
    /// Outstanding-operand count (with multiplicity: a slot reading one
    /// operand twice waits for it twice).
    waiting: Vec<AtomicUsize>,
    /// Reverse edges, with multiplicity.
    parents: Vec<Vec<u32>>,
}

impl Deps {
    /// Slot `i` finished: decrement each parent's outstanding count; a
    /// parent hitting zero is ready. Pure ready parents are returned;
    /// ready writers surface through the main loop's sequence pointer.
    fn release(&self, i: usize) -> Vec<u32> {
        let mut ready = Vec::new();
        for &p in &self.parents[i] {
            if self.waiting[p as usize].fetch_sub(1, Ordering::AcqRel) == 1
                && !self.writer[p as usize]
            {
                ready.push(p);
            }
        }
        ready
    }
}

/// Shared scheduler state, borrowed by every worker of a region.
struct Cx<'a> {
    slot: SlotCx<'a>,
    plan: &'a PhysPlan,
    arena: &'a FragArena,
    slots: &'a [Slot],
    deps: &'a Deps,
    counters: &'a SchedCounters,
}

impl Cx<'_> {
    /// Run one pure slot and return the pure parents it made ready.
    fn step(&self, i: u32, prof: &mut Profile) -> Result<Vec<u32>, EvalError> {
        let i = i as usize;
        let arena = ArenaAccess::Shared(self.arena);
        run_slot(&self.slot, arena, self.plan, i, self.slots, prof)?;
        Ok(self.deps.release(i))
    }
}

/// Drain `seeds` and everything they transitively make ready, in
/// parallel. Linear stretches run inline on the calling thread; a scoped
/// worker pool is only spun up once two or more slots are ready at the
/// same time.
fn run_region(cx: &Cx<'_>, mut seeds: Vec<u32>, profile: &mut Profile) -> Result<(), EvalError> {
    while seeds.len() == 1 {
        let i = seeds.pop().expect("len checked");
        cx.counters.inline_ops.fetch_add(1, Ordering::Relaxed);
        seeds.extend(cx.step(i, profile)?);
    }
    if seeds.is_empty() {
        return Ok(());
    }
    cx.counters.regions.fetch_add(1, Ordering::Relaxed);
    cx.counters.note_queue_depth(seeds.len());
    let w = cx.slot.opts.threads.min(seeds.len());
    let deques: Vec<Mutex<VecDeque<u32>>> = (0..w).map(|_| Mutex::new(VecDeque::new())).collect();
    // `tasks` counts published-but-unfinished slots; workers spin until
    // it reaches zero. Children are published (and counted) before their
    // releaser is retired, so the count only hits zero when the region
    // is truly drained.
    let tasks = AtomicUsize::new(seeds.len());
    for (k, i) in seeds.into_iter().enumerate() {
        deques[k % w].lock().expect("deque lock").push_back(i);
    }
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<EvalError>> = Mutex::new(None);
    let worker_profiles: Vec<Profile> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w)
            .map(|wi| {
                let (deques, tasks, abort, first_err) = (&deques, &tasks, &abort, &first_err);
                s.spawn(move || {
                    let mut prof = Profile::default();
                    worker_loop(cx, wi, deques, tasks, abort, first_err, &mut prof);
                    prof
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("region worker panicked"))
            .collect()
    });
    for p in &worker_profiles {
        profile.merge(p);
    }
    if let Some(e) = first_err.into_inner().expect("error lock") {
        return Err(e);
    }
    Ok(())
}

fn worker_loop(
    cx: &Cx<'_>,
    wi: usize,
    deques: &[Mutex<VecDeque<u32>>],
    tasks: &AtomicUsize,
    abort: &AtomicBool,
    first_err: &Mutex<Option<EvalError>>,
    prof: &mut Profile,
) {
    let w = deques.len();
    loop {
        if abort.load(Ordering::Acquire) || tasks.load(Ordering::Acquire) == 0 {
            return;
        }
        // Own deque first (LIFO: cache-warm, depth-first); steal FIFO
        // from the others otherwise (oldest task: likely a big subtree).
        let mut next = deques[wi].lock().expect("deque lock").pop_back();
        if next.is_none() {
            for k in 1..w {
                let victim = (wi + k) % w;
                next = deques[victim].lock().expect("deque lock").pop_front();
                if next.is_some() {
                    cx.counters.steals.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        let Some(i) = next else {
            std::thread::yield_now();
            continue;
        };
        cx.counters.par_ops.fetch_add(1, Ordering::Relaxed);
        match cx.step(i, prof) {
            Ok(ready) => {
                if !ready.is_empty() {
                    let outstanding = tasks.fetch_add(ready.len(), Ordering::Release) + ready.len();
                    cx.counters.note_queue_depth(outstanding);
                    let mut dq = deques[wi].lock().expect("deque lock");
                    dq.extend(ready);
                }
            }
            Err(e) => {
                let mut slot = first_err.lock().expect("error lock");
                if slot.is_none() {
                    *slot = Some(e);
                }
                abort.store(true, Ordering::Release);
                return;
            }
        }
        tasks.fetch_sub(1, Ordering::Release);
    }
}

/// Fill every slot of `plan` (the `threads > 1` arm of
/// [`Engine::eval_plan`]); fused chains are scheduled as single slots.
pub(crate) fn run(
    engine: &mut Engine<'_, '_>,
    plan: &PhysPlan,
    slots: &[Slot],
) -> Result<(), EvalError> {
    let n = plan.len();
    let mut deps = Deps {
        writer: Vec::with_capacity(n),
        waiting: Vec::with_capacity(n),
        parents: vec![Vec::new(); n],
    };
    for (i, phys) in plan.ops.iter().enumerate() {
        deps.writer.push(is_writer(engine.dag, phys));
        deps.waiting.push(AtomicUsize::new(phys.args().len()));
        for &c in phys.args() {
            deps.parents[c as usize].push(i as u32);
        }
    }
    let writer_seq: Vec<usize> = (0..n).filter(|&i| deps.writer[i]).collect();
    let mut seeds: Vec<u32> = (0..n)
        .filter(|&i| !deps.writer[i] && plan.ops[i].args().is_empty())
        .map(|i| i as u32)
        .collect();
    let counters = SchedCounters::default();
    let root = &slots[plan.root as usize];
    let mut next_writer = 0;
    while root.get().is_none() {
        if !seeds.is_empty() {
            let cx = Cx {
                slot: SlotCx {
                    dag: engine.dag,
                    opts: &engine.opts,
                    meter: &engine.meter,
                },
                plan,
                arena: &*engine.arena,
                slots,
                deps: &deps,
                counters: &counters,
            };
            run_region(&cx, std::mem::take(&mut seeds), &mut engine.profile)?;
        }
        let mut progressed = false;
        while next_writer < writer_seq.len() {
            let i = writer_seq[next_writer];
            if deps.waiting[i].load(Ordering::Acquire) != 0 {
                break;
            }
            next_writer += 1;
            progressed = true;
            engine.run_slot(plan, i, slots)?;
            seeds.extend(deps.release(i));
        }
        if seeds.is_empty() && !progressed && root.get().is_none() {
            unreachable!("scheduler stalled: no ready slot but the root is incomplete");
        }
    }
    engine.profile.sched.merge(&counters.snapshot());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::table::Table;
    use exrquy_algebra::{AValue, Col, Dag, FunKind, Op, OpId, Twig};
    use exrquy_xml::Catalog;
    use std::sync::Arc;

    fn opts(threads: usize) -> EngineOptions {
        EngineOptions {
            threads,
            ..EngineOptions::default()
        }
    }

    fn lit(dag: &mut Dag, cols: Vec<Col>, rows: Vec<Vec<i64>>) -> OpId {
        dag.add(Op::Lit {
            cols,
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(AValue::Int).collect())
                .collect(),
        })
    }

    /// A diamond of pure operators: two independent branches over one
    /// shared literal, joined by a union.
    fn diamond(dag: &mut Dag) -> OpId {
        let rows: Vec<Vec<i64>> = (0..10_000).map(|i| vec![i % 7, i]).collect();
        let base = lit(dag, vec![Col::ITER, Col::ITEM], rows);
        let a = dag.add(Op::RowNum {
            input: base,
            new: Col::POS,
            order: vec![exrquy_algebra::SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let b = dag.add(Op::RowId {
            input: base,
            new: Col::POS,
        });
        dag.add(Op::Union { l: a, r: b })
    }

    #[test]
    fn parallel_matches_serial_on_diamond() {
        let mut dag = Dag::new();
        let root = diamond(&mut dag);
        let run = |threads: usize| -> Table {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(&dag, &mut arena, opts(threads));
            (*e.eval(root).unwrap()).clone()
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.schema(), par.schema());
        assert_eq!(serial.nrows(), par.nrows());
        for (name, col) in serial.columns() {
            assert_eq!(col.to_column(), par.col(*name).to_column(), "column {name}");
        }
    }

    #[test]
    fn scheduler_counters_populate_under_parallel_execution() {
        let mut dag = Dag::new();
        let root = diamond(&mut dag);
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(&dag, &mut arena, opts(4));
        e.eval(root).unwrap();
        let s = e.profile.sched;
        // The diamond has 4 pure operators; every one must be accounted
        // either to a worker pool or to an inline stretch.
        assert_eq!(s.par_ops + s.inline_ops, 4, "{s:?}");
        // The two independent branches are ready simultaneously.
        assert!(s.regions >= 1, "{s:?}");
        assert!(s.queue_peak >= 2, "{s:?}");
        // Serial execution never touches the scheduler.
        let mut arena2 = FragArena::new(Arc::new(Catalog::new()));
        let mut e2 = Engine::new(&dag, &mut arena2, opts(1));
        e2.eval(root).unwrap();
        assert_eq!(e2.profile.sched, SchedStats::default());
    }

    #[test]
    fn parallel_runs_fused_chains_identically() {
        // fun → σ → fun over a wide literal: fuses into one chain, which
        // the scheduler must execute as a single slot with the same
        // result as the serial vectorized run and the scalar reference
        // arm — itself run serially and through the same scheduler.
        let mut dag = Dag::new();
        let rows: Vec<Vec<i64>> = (0..20_000).map(|i| vec![i % 11, i]).collect();
        let base = lit(&mut dag, vec![Col::ITER, Col::ITEM], rows);
        let lt = dag.add(Op::Fun {
            input: base,
            new: Col::RES,
            kind: FunKind::Lt,
            args: vec![Col::ITER, Col::ITEM],
        });
        let sel = dag.add(Op::Select {
            input: lt,
            col: Col::RES,
        });
        let add = dag.add(Op::Fun {
            input: sel,
            new: Col::ITEM1,
            kind: FunKind::Add,
            args: vec![Col::ITER, Col::ITEM],
        });
        let root = dag.add(Op::Distinct { input: add });
        let run = |threads: usize, scalar: bool| -> Table {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(
                &dag,
                &mut arena,
                EngineOptions {
                    threads,
                    scalar,
                    ..EngineOptions::default()
                },
            );
            (*e.eval(root).unwrap()).clone()
        };
        let scalar = run(1, true);
        for t in [run(4, true), run(1, false), run(4, false)] {
            assert_eq!(scalar.schema(), t.schema());
            assert_eq!(scalar.nrows(), t.nrows());
            // Value-wise comparison: the vectorized path may pick denser
            // physical representations (bit-packed booleans) for the
            // same logical column.
            for (name, col) in scalar.columns() {
                let tc = t.col(*name);
                for r in 0..scalar.nrows() {
                    assert_eq!(col.get(r), tc.get(r), "column {name} row {r}");
                }
            }
        }
        // The chain really fused (3 ops in one slot).
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(&dag, &mut arena, opts(4));
        e.eval(root).unwrap();
        assert_eq!(e.profile.vec.fused_chains, 1, "{:?}", e.profile.vec);
        assert_eq!(e.profile.vec.fused_ops, 3, "{:?}", e.profile.vec);
        // The scalar arm went through the scheduler too, one operator
        // per slot: five slots, none fused.
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let scalar_opts = EngineOptions {
            threads: 4,
            scalar: true,
            ..EngineOptions::default()
        };
        let mut e = Engine::new(&dag, &mut arena, scalar_opts);
        e.eval(root).unwrap();
        assert_eq!(e.profile.vec.fused_chains, 0, "{:?}", e.profile.vec);
        let s = e.profile.sched;
        assert_eq!(s.par_ops + s.inline_ops, 5, "{s:?}");
    }

    #[test]
    fn parallel_construction_matches_serial() {
        let mut dag = Dag::new();
        let iters = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)], vec![AValue::Int(2)]],
        });
        let content = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::POS, Col::ITEM, Col::ORD],
            rows: vec![
                vec![
                    AValue::Int(1),
                    AValue::Int(1),
                    AValue::Int(10),
                    AValue::Int(1),
                ],
                vec![
                    AValue::Int(2),
                    AValue::Int(1),
                    AValue::Int(20),
                    AValue::Int(1),
                ],
            ],
        });
        let elem = dag.add(Op::Element {
            iters,
            content,
            twig: Arc::new(Twig::leaf("a", 1)),
        });
        let render = |threads: usize| -> Vec<String> {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(&dag, &mut arena, opts(threads));
            let t = e.eval(elem).unwrap();
            (0..t.nrows())
                .map(|r| {
                    let Item::Node(node) = t.item(Col::ITEM, r) else {
                        panic!("expected node")
                    };
                    exrquy_xml::serialize::node_to_string(e.arena, node)
                })
                .collect()
        };
        assert_eq!(render(1), render(4));
        assert_eq!(render(4), vec!["<a>10</a>".to_string(), "<a>20</a>".into()]);
    }

    #[test]
    fn parallel_reports_evaluation_errors() {
        let mut dag = Dag::new();
        // Select on a non-boolean column fails identically on both paths.
        let base = lit(&mut dag, vec![Col::ITER, Col::ITEM], vec![vec![1, 5]]);
        let bad = dag.add(Op::Select {
            input: base,
            col: Col::ITEM,
        });
        let ok = dag.add(Op::Distinct { input: base });
        let root = dag.add(Op::Union { l: bad, r: ok });
        let err_of = |threads: usize| {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(&dag, &mut arena, opts(threads));
            e.eval(root).unwrap_err()
        };
        assert_eq!(err_of(1).code, err_of(4).code);
    }
}
