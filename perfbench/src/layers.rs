//! The per-crate ledger of a traced run (`--trace 1`).
//!
//! Three probes run after the timed window, each through spans recorded
//! here in the benchmark, around calls into the crates' public
//! functions:
//!
//! * [`xml_probes`] parse, walk and serialize the workload's XMark text
//!   directly through `exrquy-xml`;
//! * [`compile_ledger`] takes the workload's query set through the
//!   compile pipeline stage by stage (the sequence `Executor::compile`
//!   runs), beside cold and cached `Executor::prepare` calls;
//! * [`engine_ledger`] executes the query set in process and splits the
//!   time by `Profile` phase.
//!
//! A metric whose layer the workload does not exercise reads 0.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{timed, PlanSpec};
use exrquy::engine::Profile;
use exrquy::{Error, Executor, Prepared, QueryOptions};
use exrquy_algebra::{lower, PlanStats};
use exrquy_compiler::{CompiledPlan, Compiler};
use exrquy_frontend::{check_depth, normalize_opts, parse_module_with, DEFAULT_MAX_DEPTH};
use exrquy_opt::{cost_optimize, try_optimize_with, CostContext};
use exrquy_xml::axis::{step, step_name_stream};
use exrquy_xml::serialize::serialize_subtree;
use exrquy_xml::{parse_document, Axis, Catalog, NamePool, NodeTest};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xmark.gen_mb_per_s", "MB/s"),
    ("xml.parse_mb_per_s", "MB/s"),
    ("xml.parse_nodes_per_s", "1/s"),
    ("xml.materialize_ms", "ms"),
    ("xml.swap_ms", "ms"),
    ("xml.serialize_mb_per_s", "MB/s"),
    ("xml.step_staircase_ms", "ms"),
    ("xml.step_namestream_ms", "ms"),
    ("frontend.parse_us", "us"),
    ("frontend.normalize_us", "us"),
    ("compiler.looplift_us", "us"),
    ("compiler.plan_ops", "count"),
    ("opt.rewrite_us", "us"),
    ("opt.cost_us", "us"),
    ("opt.rules_fired", "count"),
    ("opt.plan_ops_final", "count"),
    ("opt.rownum_ops", "count"),
    ("opt.rowid_ops", "count"),
    ("opt.joins_reordered", "count"),
    ("opt.ranks_elided", "count"),
    ("algebra.lower_us", "us"),
    ("algebra.phys_slots", "count"),
    ("algebra.fused_ops", "count"),
    ("engine.eval_ms", "ms"),
    ("engine.rows_out", "count"),
    ("engine.ns_per_row", "ns"),
    ("engine.rownum_ms", "ms"),
    ("engine.join_ms", "ms"),
    ("engine.steps_ms", "ms"),
    ("engine.arith_ms", "ms"),
    ("engine.construct_ms", "ms"),
    ("engine.aggr_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("engine.q01_ms", "ms"),
    ("engine.q02_ms", "ms"),
    ("engine.q03_ms", "ms"),
    ("engine.q04_ms", "ms"),
    ("engine.q05_ms", "ms"),
    ("engine.q06_ms", "ms"),
    ("engine.q07_ms", "ms"),
    ("engine.q08_ms", "ms"),
    ("engine.q09_ms", "ms"),
    ("engine.q10_ms", "ms"),
    ("engine.q11_ms", "ms"),
    ("engine.q12_ms", "ms"),
    ("engine.q13_ms", "ms"),
    ("engine.q14_ms", "ms"),
    ("engine.q15_ms", "ms"),
    ("engine.q16_ms", "ms"),
    ("engine.q17_ms", "ms"),
    ("engine.q18_ms", "ms"),
    ("engine.q19_ms", "ms"),
    ("engine.q20_ms", "ms"),
    ("engine.par2_ratio", "ratio"),
    ("core.prepare_cold_us", "us"),
    ("core.prepare_hit_us", "us"),
    ("core.cache_hit_rate", "ratio"),
    ("core.result_ms", "ms"),
    ("core.direct_ms_p50", "ms"),
    ("core.stage_sum_ratio", "ratio"),
    ("xqd.overhead_ms", "ms"),
    ("xqd.ops_per_s", "1/s"),
    ("xqd.lat_ms_p50", "ms"),
    ("xqd.lat_ms_p95", "ms"),
    ("xqd.connect_ms", "ms"),
    ("xqd.queue_peak", "count"),
    ("xqd.shed", "count"),
    ("xqd.failed", "count"),
    ("xqd.crashed", "count"),
    ("xqd.reconciles", "count"),
    ("xqd.mem_peak_bytes", "bytes"),
    ("xqd.resp_mb_per_s", "MB/s"),
    ("xqc.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer metric values of one run.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }

    /// Set a metric named in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Median duration in ms of the spans named `name` (0 when none).
fn span_ms(tr: &Tracer, name: &str) -> f64 {
    median(&tr.self_ms_of(name))
}

/// `xmark` and `xml`: the generator's rate from the set-up span, then
/// the parser, both step algorithms and the serializer over `text`,
/// each `reps` times (medians are reported).
pub fn xml_probes(text: &str, reps: usize, tr: &mut Tracer, layers: &mut Layers) {
    let gen_ms = span_ms(tr, "xmark.generate");
    if gen_ms > 0.0 {
        layers.set("xmark.gen_mb_per_s", mb(text.len()) / (gen_ms / 1e3));
    }
    layers.set("xml.materialize_ms", span_ms(tr, "xml.materialize"));
    layers.set("xml.swap_ms", span_ms(tr, "xml.swap"));

    let mut pool = NamePool::new();
    let mut parses = Vec::new();
    for _ in 0..reps {
        pool = NamePool::new();
        parses.push(tr.span("xml.parse", |_| {
            parse_document(text, &mut pool).expect("generated XMark parses")
        }));
    }
    let doc = parses.pop().expect("reps > 0");
    drop(parses);
    let parse_s = span_ms(tr, "xml.parse") / 1e3;
    layers.set("xml.parse_mb_per_s", mb(text.len()) / parse_s);
    layers.set("xml.parse_nodes_per_s", doc.len() as f64 / parse_s);

    // Descendant steps from the root for a frequent, two mid-frequency
    // and a rare element name: the knob audit needs each algorithm to
    // win somewhere.
    let tests: Vec<NodeTest> = ["keyword", "item", "person", "category"]
        .iter()
        .filter_map(|name| pool.lookup(name))
        .map(NodeTest::Name)
        .collect();
    for _ in 0..reps {
        let staircase: usize = tr.span("xml.step_staircase", |_| {
            tests
                .iter()
                .map(|t| step(&doc, &[0], Axis::Descendant, *t).len())
                .sum()
        });
        let streamed: usize = tr.span("xml.step_namestream", |_| {
            tests
                .iter()
                .map(|t| step_name_stream(&doc, &[0], Axis::Descendant, *t).len())
                .sum()
        });
        assert_eq!(staircase, streamed, "step algorithms disagree");
    }
    layers.set("xml.step_staircase_ms", span_ms(tr, "xml.step_staircase"));
    layers.set("xml.step_namestream_ms", span_ms(tr, "xml.step_namestream"));

    let mut bytes = 0;
    for _ in 0..reps {
        let mut out = String::new();
        tr.span("xml.serialize", |_| {
            serialize_subtree(&doc, 0, &pool, &mut out)
        });
        bytes = out.len();
    }
    layers.set(
        "xml.serialize_mb_per_s",
        mb(bytes) / (span_ms(tr, "xml.serialize") / 1e3),
    );
}

const STAGES: [&str; 6] = [
    "frontend.parse",
    "frontend.normalize",
    "compiler.looplift",
    "opt.rewrite",
    "opt.cost",
    "algebra.lower",
];

/// One query through the stages of `Executor::compile`, a span around
/// each; returns the milliseconds of each stage in [`STAGES`] order.
fn staged_compile(
    catalog: &Catalog,
    query: &str,
    opts: &QueryOptions,
    tr: &mut Tracer,
) -> Result<[f64; 6], Error> {
    let max_depth = opts.budget.max_depth.unwrap_or(DEFAULT_MAX_DEPTH);
    let (parse_ms, module) = timed(|| tr.span(STAGES[0], |_| parse_module_with(query, max_depth)));
    let mut module = module.map_err(Error::Parse)?;
    if let Some(mode) = opts.ordering {
        module.ordering = mode;
    }
    let (normalize_ms, module) = timed(|| {
        tr.span(STAGES[1], |_| {
            let module = normalize_opts(&module, opts.exploit);
            check_depth(&module, max_depth.saturating_add(16)).map(|()| module)
        })
    });
    let module = module.map_err(Error::Parse)?;
    let (looplift_ms, compiled) = timed(|| {
        tr.span(STAGES[2], |_| {
            Compiler::new(catalog).compile_module(&module)
        })
    });
    let CompiledPlan { mut dag, root, .. } = compiled.map_err(Error::Compile)?;
    let (rewrite_ms, rewritten) = timed(|| {
        tr.span(STAGES[3], |_| {
            // `stats_initial`, which `compile` takes before rewriting.
            std::hint::black_box(PlanStats::of(&dag, root));
            try_optimize_with(&mut dag, root, &opts.opt, None)
        })
    });
    let (root, _) = rewritten.map_err(Error::Opt)?;
    let ctx = CostContext {
        stats: Some(catalog.stats()),
        perturb: None,
    };
    let (cost_ms, costed) = timed(|| {
        tr.span(STAGES[4], |_| {
            cost_optimize(&mut dag, root, &opts.opt, &ctx)
        })
    });
    let (root, _) = costed.map_err(Error::Opt)?;
    let (lower_ms, phys) = timed(|| {
        tr.span(STAGES[5], |_| {
            // `stats_final`, which `compile` takes before lowering.
            std::hint::black_box(PlanStats::of(&dag, root));
            lower(&dag, root, opts.vectorized)
        })
    });
    std::hint::black_box(phys);
    Ok([
        parse_ms,
        normalize_ms,
        looplift_ms,
        rewrite_ms,
        cost_ms,
        lower_ms,
    ])
}

/// Mean over queries of each query's median, in microseconds.
fn mean_of_medians_us(per_query: &[Vec<f64>]) -> f64 {
    per_query.iter().map(|ms| median(ms)).sum::<f64>() / per_query.len() as f64 * 1e3
}

/// `frontend`, `compiler`, `opt`, `algebra` and the `core` prepare path
/// over the workload's query set.
pub fn compile_ledger(
    catalog: &Arc<Catalog>,
    plans: &[PlanSpec],
    reps: usize,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    let mut stage_ms = vec![vec![Vec::new(); plans.len()]; STAGES.len()];
    let (mut staged, mut cold, mut hit) = (
        vec![Vec::new(); plans.len()],
        vec![Vec::new(); plans.len()],
        vec![Vec::new(); plans.len()],
    );
    let mut prepared: Vec<Arc<Prepared>> = Vec::new();
    for (q, spec) in plans.iter().enumerate() {
        for rep in 0..reps {
            let stages = staged_compile(catalog, &spec.query, &spec.opts, tr)
                .unwrap_or_else(|e| panic!("{} compiles in stages: {e}", spec.name));
            for (per_stage, ms) in stage_ms.iter_mut().zip(stages) {
                per_stage[q].push(ms);
            }
            staged[q].push(stages.iter().sum());

            let executor = Executor::new(Arc::clone(catalog));
            let (cold_ms, plan) = timed(|| {
                tr.span("core.prepare_cold", |_| {
                    executor.prepare(&spec.query, &spec.opts)
                })
            });
            let (hit_ms, _) = timed(|| {
                tr.span("core.prepare_hit", |_| {
                    executor.prepare(&spec.query, &spec.opts)
                })
            });
            cold[q].push(cold_ms);
            hit[q].push(hit_ms);
            if rep == 0 {
                prepared.push(plan.unwrap_or_else(|e| panic!("{} prepares: {e}", spec.name)));
            }
        }
    }
    for (stage, metric) in [
        "frontend.parse_us",
        "frontend.normalize_us",
        "compiler.looplift_us",
        "opt.rewrite_us",
        "opt.cost_us",
        "algebra.lower_us",
    ]
    .iter()
    .enumerate()
    {
        layers.set(metric, mean_of_medians_us(&stage_ms[stage]));
    }
    layers.set("core.prepare_cold_us", mean_of_medians_us(&cold));
    layers.set("core.prepare_hit_us", mean_of_medians_us(&hit));
    layers.set(
        "core.stage_sum_ratio",
        mean_of_medians_us(&staged) / mean_of_medians_us(&cold),
    );

    let sum = |f: &dyn Fn(&Prepared) -> usize| prepared.iter().map(|p| f(p)).sum::<usize>() as f64;
    layers.set("compiler.plan_ops", sum(&|p| p.stats_initial.total));
    layers.set("opt.rules_fired", sum(&|p| p.opt_report.trace.len()));
    layers.set("opt.plan_ops_final", sum(&|p| p.stats_final.total));
    layers.set("opt.rownum_ops", sum(&|p| p.stats_final.rownums()));
    layers.set("opt.rowid_ops", sum(&|p| p.stats_final.rowids()));
    layers.set("opt.joins_reordered", sum(&|p| p.cost_report.reordered));
    layers.set("opt.ranks_elided", sum(&|p| p.cost_report.elided));
    layers.set("algebra.phys_slots", sum(&|p| p.phys.len()));
    layers.set("algebra.fused_ops", sum(&|p| p.phys.fused_ops));
}

/// `Profile` phase → metric.
const PHASES: [(&str, &str); 7] = [
    ("path steps", "engine.steps_ms"),
    ("atomization & arithmetic", "engine.arith_ms"),
    ("join", "engine.join_ms"),
    ("iter→seq reorder (%)", "engine.rownum_ms"),
    ("node construction", "engine.construct_ms"),
    ("aggregation", "engine.aggr_ms"),
    ("other", "engine.other_ms"),
];

/// Seconds the engine ledger may spend beyond its first `reps` rounds.
const ENGINE_LEDGER_S: f64 = 2.0;
const ENGINE_LEDGER_MAX_ROUNDS: usize = 9;

/// `engine` and the `core` result path: the query set executed in
/// process, serially and with two worker threads, medians per query
/// summed over the set (the engine's share of one pass).
pub fn engine_ledger(
    catalog: &Arc<Catalog>,
    plans: &[PlanSpec],
    reps: usize,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    let executor = Executor::new(Arc::clone(catalog));
    let prepare = |spec: &PlanSpec, threads: usize| {
        executor
            .prepare(&spec.query, &spec.opts.clone().with_threads(threads))
            .unwrap_or_else(|e| panic!("{} prepares: {e}", spec.name))
    };
    let serial: Vec<Arc<Prepared>> = plans.iter().map(|s| prepare(s, 1)).collect();
    let par2: Vec<Arc<Prepared>> = plans.iter().map(|s| prepare(s, 2)).collect();

    #[derive(Default, Clone)]
    struct PerQuery {
        wall: Vec<f64>,
        wall_par2: Vec<f64>,
        eval: Vec<f64>,
        result: Vec<f64>,
        phases: [Vec<f64>; 7],
        rows: f64,
    }
    let mut per_query = vec![PerQuery::default(); plans.len()];
    let run = |plan: &Prepared, tr: &mut Tracer| -> (f64, f64, Profile) {
        let (exec_ms, out) = timed(|| tr.span("core.execute", |_| executor.execute(plan)));
        let out = out.unwrap_or_else(|e| panic!("ledger execution failed: {e}"));
        let (xml_ms, xml) = timed(|| tr.span("core.to_xml", |_| out.to_xml()));
        std::hint::black_box(xml);
        (exec_ms, xml_ms, out.profile)
    };
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < reps
        || (rounds < ENGINE_LEDGER_MAX_ROUNDS && started.elapsed().as_secs_f64() < ENGINE_LEDGER_S)
    {
        for (q, pq) in per_query.iter_mut().enumerate() {
            let (exec_ms, xml_ms, profile) = run(&serial[q], tr);
            let eval_ms = profile.total().as_secs_f64() * 1e3;
            pq.wall.push(exec_ms + xml_ms);
            pq.eval.push(eval_ms);
            pq.result.push(exec_ms - eval_ms);
            let by_phase = profile.by_phase(&serial[q].dag);
            for (samples, (phase, _)) in pq.phases.iter_mut().zip(PHASES) {
                samples.push(by_phase.get(phase).map_or(0.0, |d| d.as_secs_f64() * 1e3));
            }
            pq.rows = profile.rows().values().sum::<u64>() as f64;
            let (exec_ms, xml_ms, _) = run(&par2[q], tr);
            pq.wall_par2.push(exec_ms + xml_ms);
        }
        rounds += 1;
    }

    let sum_median = |f: &dyn Fn(&PerQuery) -> &Vec<f64>| -> f64 {
        per_query.iter().map(|pq| median(f(pq))).sum()
    };
    let eval_ms = sum_median(&|pq| &pq.eval);
    let rows: f64 = per_query.iter().map(|pq| pq.rows).sum();
    layers.set("engine.eval_ms", eval_ms);
    layers.set("engine.rows_out", rows);
    if rows > 0.0 {
        layers.set("engine.ns_per_row", eval_ms * 1e6 / rows);
    }
    for (i, (_, metric)) in PHASES.iter().enumerate() {
        layers.set(metric, sum_median(&|pq| &pq.phases[i]));
    }
    for (spec, pq) in plans.iter().zip(&per_query) {
        // `q01` … `q20` name the XMark queries in every workload.
        let metric = format!("engine.{}_ms", spec.name);
        if PER_LAYER.iter().any(|(name, _)| *name == metric) {
            layers.set(&metric, median(&pq.wall));
        }
    }
    layers.set(
        "engine.par2_ratio",
        sum_median(&|pq| &pq.wall_par2) / sum_median(&|pq| &pq.wall),
    );
    layers.set("core.result_ms", sum_median(&|pq| &pq.result));
    let pooled: Vec<f64> = per_query
        .iter()
        .flat_map(|pq| pq.wall.iter().copied())
        .collect();
    layers.set("core.direct_ms_p50", percentile(&pooled, 50.0));
}
