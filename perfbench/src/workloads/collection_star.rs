//! `collection_star`: the only workload where `Fanout`/`ShardUnion`, the
//! shard-push rewrites, join reordering and the hash joins do the work.
//! One lazily loaded 8-shard catalog holds the skewed star corpus and an
//! XMark document split by subtree; the operations are the star joins
//! in their worst clause order and the `fn:collection()` matrix, cost
//! planner on, shards warm.

use super::{oracle_digests, reference_catalog, run_plan};
use crate::check::{Digest, Match};
use crate::inputs::{
    sharded_corpus, xmark_text, COLLECTION_QUERIES, COUNT_COLLECTION, STAR_QUERIES,
};
use crate::trace::Tracer;
use crate::workload::{Ctx, OpSpec, Output, PlanSpec, Workload};
use exrquy::{Prepared, QueryOptions, Session};
use exrquy_xml::Catalog;
use std::sync::Arc;

pub const SHARDS: usize = 8;

pub struct CollectionStar {
    text: String,
    docs: Vec<(String, String)>,
    session: Session,
    plans: Vec<Arc<Prepared>>,
}

fn queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    STAR_QUERIES.into_iter().chain(COLLECTION_QUERIES)
}

impl Workload for CollectionStar {
    const NAME: &'static str = "collection_star";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let text = tr.span("xmark.generate", |_| {
            xmark_text(ctx.sizes.xmark_small, ctx.seed)
        });
        let docs = sharded_corpus(&ctx.sizes, &text, ctx.seed);
        let mut session = Session::new();
        tr.span("core.load_corpus_sharded", |_| {
            session.load_corpus_sharded(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())), SHARDS)
        });
        let plans = tr.span("core.prepare", |_| {
            queries()
                .map(|(name, q)| {
                    session
                        .prepare(q, &QueryOptions::order_indifferent())
                        .unwrap_or_else(|e| panic!("{name} prepares: {e}"))
                })
                .collect()
        });
        // The first query over the whole collection parses every shard.
        tr.span("xml.materialize", |_| {
            session
                .query_with(COUNT_COLLECTION, &QueryOptions::order_indifferent())
                .expect("collection materializes")
        });
        let mut w = CollectionStar {
            text,
            docs,
            session,
            plans,
        };
        tr.span("warmup", |tr| {
            for op in 0..w.plans.len() {
                w.run_op(op, tr).expect("warm-up executes");
            }
        });
        w
    }

    fn ops(&self) -> Vec<OpSpec> {
        queries()
            .map(|(name, _)| OpSpec {
                name: name.to_string(),
                mode: Match::Bag,
            })
            .collect()
    }

    fn oracle(&self) -> Vec<Digest> {
        oracle_digests(reference_catalog(&self.docs), queries().map(|(_, q)| q))
    }

    fn run_op(&mut self, op: usize, tr: &mut Tracer) -> Result<(f64, Output), String> {
        run_plan(self.session.executor(), &self.plans[op], tr)
    }

    fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(self.session.catalog())
    }

    fn plans(&self) -> Vec<PlanSpec> {
        queries()
            .map(|(name, q)| PlanSpec {
                name: name.to_string(),
                query: q.to_string(),
                opts: QueryOptions::order_indifferent(),
            })
            .collect()
    }

    fn xmark_text(&self) -> &str {
        &self.text
    }
}
