//! `catalog_load`: the write path beside the reads. XML parsing,
//! catalog build, statistics collection and the executor swap do the
//! work, so an index-at-load or statistics change that helps
//! `xmark_unordered` shows its cost here.

use super::collection_star::SHARDS;
use super::oracle_digests;
use crate::check::{Digest, Match};
use crate::inputs::{count_elements, sharded_corpus, xmark_queries, xmark_text, COUNT_COLLECTION};
use crate::trace::Tracer;
use crate::workload::{timed, Ctx, OpSpec, Output, PlanSpec, Workload};
use exrquy::{QueryOptions, ResultItem, Session};
use exrquy_xmark::query;
use exrquy_xml::Catalog;
use std::sync::Arc;

const COUNT_DOC: &str = r#"fn:count(doc("auction.xml")//*)"#;

pub struct CatalogLoad {
    text: String,
    /// The star relations and the text split by subtree, for the lazy
    /// sharded load.
    docs: Vec<(String, String)>,
    /// A session whose plan cache holds Q1–Q20; `reload_swap` loads
    /// into it.
    warm: Session,
}

fn opts() -> QueryOptions {
    QueryOptions::order_indifferent()
}

impl CatalogLoad {
    fn warm_plan_cache(&self) {
        for (name, q) in xmark_queries() {
            self.warm
                .prepare(q, &opts())
                .unwrap_or_else(|e| panic!("{name} prepares: {e}"));
        }
    }
}

impl Workload for CatalogLoad {
    const NAME: &'static str = "catalog_load";
    const BIG_XMARK: bool = true;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let text = tr.span("xmark.generate", |_| {
            xmark_text(ctx.sizes.xmark, ctx.xmark_seed)
        });
        let docs = sharded_corpus(&ctx.sizes, &text, ctx.seed);
        let mut warm = Session::new();
        tr.span("core.load_document", |_| {
            warm.load_document("auction.xml", &text)
                .expect("generated XMark parses")
        });
        let mut w = CatalogLoad { text, docs, warm };
        tr.span("core.prepare", |_| w.warm_plan_cache());
        tr.span("warmup", |tr| {
            for op in 0..3 {
                w.run_op(op, tr).expect("warm-up loads");
            }
        });
        w
    }

    fn ops(&self) -> Vec<OpSpec> {
        [
            ("load_eager", Match::Seq),
            ("load_lazy_touch", Match::Seq),
            ("reload_swap", Match::Bag),
        ]
        .into_iter()
        .map(|(name, mode)| OpSpec {
            name: name.to_string(),
            mode,
        })
        .collect()
    }

    /// The two loads must find every element a scan of the text finds;
    /// Q1 after the swap must answer as the oracle does.
    fn oracle(&self) -> Vec<Digest> {
        let count = |n: usize| Digest::of_items(&[ResultItem::Int(n as i64)], &n.to_string());
        let q1 = oracle_digests(Arc::clone(self.warm.catalog()), [query(1)]);
        vec![
            count(count_elements(&self.text)),
            count(self.docs.iter().map(|(_, x)| count_elements(x)).sum()),
            q1[0],
        ]
    }

    fn run_op(&mut self, op: usize, tr: &mut Tracer) -> Result<(f64, Output), String> {
        let (ms, out) = match op {
            // `Session::new` + `load_document` of the whole text; the
            // element count that checks it runs off the clock.
            0 => {
                let (ms, session) = timed(|| {
                    let mut s = Session::new();
                    tr.span("core.load_document", |_| {
                        s.load_document("auction.xml", &self.text)
                    })
                    .map(|()| s)
                });
                let session = session.map_err(|e| e.to_string())?;
                (ms, session.query_with(COUNT_DOC, &opts()))
            }
            // Lazy sharded load plus the first query over it, which
            // materializes every shard.
            1 => timed(|| {
                let mut s = Session::new();
                tr.span("core.load_corpus_sharded", |_| {
                    let docs = self.docs.iter().map(|(u, x)| (u.as_str(), x.as_str()));
                    s.load_corpus_sharded(docs, SHARDS)
                });
                tr.span("xml.materialize", |_| {
                    s.query_with(COUNT_COLLECTION, &opts())
                })
            }),
            // Reload into a session with a warm plan cache, then the
            // first prepare + execute of Q1 after the swap.
            2 => {
                let timed_part = timed(|| {
                    tr.span("xml.swap", |_| {
                        self.warm.load_document("auction.xml", &self.text)
                    })?;
                    tr.span("core.query", |_| self.warm.query_with(query(1), &opts()))
                });
                self.warm_plan_cache();
                timed_part
            }
            _ => unreachable!("catalog_load has three operations"),
        };
        let out = out.map_err(|e| e.to_string())?;
        let xml = out.to_xml();
        Ok((ms, Output::items(out, xml)))
    }

    fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(self.warm.catalog())
    }

    fn plans(&self) -> Vec<PlanSpec> {
        [
            ("count_doc", COUNT_DOC),
            ("count_collection", COUNT_COLLECTION),
            ("q01", query(1)),
        ]
        .into_iter()
        .map(|(name, q)| PlanSpec {
            name: name.to_string(),
            query: q.to_string(),
            opts: opts(),
        })
        .collect()
    }

    fn xmark_text(&self) -> &str {
        &self.text
    }
}
