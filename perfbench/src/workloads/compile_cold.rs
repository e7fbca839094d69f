//! `compile_cold`: parse → normalize → loop-lift → rewrite → cost →
//! lower is the whole cost. Every operation prepares one query through
//! a fresh executor — a cold plan cache — over a tiny sharded catalog,
//! so the engine is idle and a rewriter or cost-pass change shows here
//! and nowhere else.

use super::{oracle_digests, reference_catalog};
use crate::check::{Digest, Match};
use crate::inputs::{
    split_xmark, star_corpus, xmark_queries, xmark_text, COLLECTION_QUERIES, STAR_QUERIES,
};
use crate::trace::Tracer;
use crate::workload::{timed, Ctx, OpSpec, Output, PlanSpec, Workload};
use exrquy::{Executor, Prepared, QueryOptions, Session};
use exrquy_xml::Catalog;
use std::sync::Arc;

pub struct CompileCold {
    text: String,
    docs: Vec<(String, String)>,
    catalog: Arc<Catalog>,
    specs: Vec<(PlanSpec, Match)>,
    /// Census of the last plan of each operation that was executed, and
    /// its output's digest; an identical census needs no second execution.
    executed: Vec<Option<(String, Digest)>>,
}

fn census(plan: &Prepared) -> String {
    format!("{} / {} slots", plan.stats_final, plan.phys.len())
}

impl Workload for CompileCold {
    const NAME: &'static str = "compile_cold";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let sizes = &ctx.sizes;
        let text = tr.span("xmark.generate", |_| xmark_text(sizes.xmark_tiny, ctx.seed));
        let mut docs = vec![("auction.xml".to_string(), text.clone())];
        docs.extend(star_corpus(
            (sizes.star_rows / 25).max(1),
            (sizes.star_keys / 5).max(1),
            ctx.seed,
        ));
        docs.extend(split_xmark(&text));
        let mut session = Session::new();
        tr.span("core.load_corpus_sharded", |_| {
            session.load_corpus_sharded(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())), 8)
        });

        let mut specs = Vec::new();
        let queries = xmark_queries()
            .into_iter()
            .chain(STAR_QUERIES.iter().map(|(n, q)| (n.to_string(), *q)))
            .chain(COLLECTION_QUERIES.iter().map(|(n, q)| (n.to_string(), *q)));
        for (name, q) in queries {
            for (mode, suffix, opts) in [
                (Match::Bag, "", QueryOptions::order_indifferent()),
                (Match::Seq, ".ordered", QueryOptions::baseline()),
            ] {
                specs.push((
                    PlanSpec {
                        name: format!("{name}{suffix}"),
                        query: q.to_string(),
                        opts,
                    },
                    mode,
                ));
            }
        }
        let mut w = CompileCold {
            text,
            docs,
            catalog: Arc::clone(session.catalog()),
            executed: vec![None; specs.len()],
            specs,
        };
        tr.span("warmup", |tr| {
            for op in 0..w.specs.len() {
                w.run_op(op, tr).expect("warm-up prepares");
            }
        });
        w
    }

    fn ops(&self) -> Vec<OpSpec> {
        self.specs
            .iter()
            .map(|(spec, mode)| OpSpec {
                name: spec.name.clone(),
                mode: *mode,
            })
            .collect()
    }

    fn oracle(&self) -> Vec<Digest> {
        oracle_digests(
            reference_catalog(&self.docs),
            self.specs.iter().map(|(s, _)| s.query.as_str()),
        )
    }

    fn run_op(&mut self, op: usize, tr: &mut Tracer) -> Result<(f64, Output), String> {
        let spec = &self.specs[op].0;
        let executor = Executor::new(Arc::clone(&self.catalog));
        let (ms, plan) = timed(|| {
            tr.span("core.prepare", |_| {
                executor.prepare(&spec.query, &spec.opts)
            })
        });
        let plan = plan.map_err(|e| e.to_string())?;
        let census = census(&plan);
        if let Some((_, digest)) = self.executed[op].as_ref().filter(|(c, _)| *c == census) {
            return Ok((ms, Output::Known(*digest)));
        }
        // The plan is the output; it is right if it computes the right
        // answer, so execute it — off the clock.
        let out = executor.execute(&plan).map_err(|e| e.to_string())?;
        let digest = Digest::of_items(&out.items, &out.to_xml());
        self.executed[op] = Some((census, digest));
        Ok((ms, Output::Known(digest)))
    }

    fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    fn plans(&self) -> Vec<PlanSpec> {
        self.specs.iter().map(|(s, _)| s.clone()).collect()
    }

    fn xmark_text(&self) -> &str {
        &self.text
    }
}
