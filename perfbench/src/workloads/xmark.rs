//! `xmark_unordered` and `xmark_ordered`: XMark Q1–Q20 over one eager
//! document, plans prepared once, under the order-indifferent compiler
//! (the product's default path) and under the order-aware baseline (the
//! paper's comparison arm).

use super::{oracle_digests, run_plan};
use crate::check::{Digest, Match};
use crate::inputs::{xmark_queries, xmark_text};
use crate::trace::Tracer;
use crate::workload::{Ctx, OpSpec, Output, PlanSpec, Workload};
use exrquy::{Prepared, QueryOptions, Session};
use exrquy_xml::Catalog;
use std::sync::Arc;

pub struct Xmark<const ORDERED: bool> {
    text: String,
    session: Session,
    plans: Vec<Arc<Prepared>>,
}

impl<const ORDERED: bool> Xmark<ORDERED> {
    fn opts() -> QueryOptions {
        if ORDERED {
            QueryOptions::baseline()
        } else {
            QueryOptions::order_indifferent()
        }
    }
}

impl<const ORDERED: bool> Workload for Xmark<ORDERED> {
    const NAME: &'static str = if ORDERED {
        "xmark_ordered"
    } else {
        "xmark_unordered"
    };
    const BIG_XMARK: bool = true;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let text = tr.span("xmark.generate", |_| {
            xmark_text(ctx.sizes.xmark, ctx.xmark_seed)
        });
        let mut session = Session::new();
        tr.span("core.load_document", |_| {
            session
                .load_document("auction.xml", &text)
                .expect("generated XMark parses")
        });
        let plans = tr.span("core.prepare", |_| {
            xmark_queries()
                .iter()
                .map(|(name, q)| {
                    session
                        .prepare(q, &Self::opts())
                        .unwrap_or_else(|e| panic!("{name} prepares: {e}"))
                })
                .collect()
        });
        let mut w = Xmark {
            text,
            session,
            plans,
        };
        // The ordered pass is five times the unordered one; one warm-up
        // pass of it is as long as two of the other.
        tr.span("warmup", |tr| {
            for _ in 0..if ORDERED { 1 } else { 2 } {
                for op in 0..w.plans.len() {
                    w.run_op(op, tr).expect("warm-up executes");
                }
            }
        });
        w
    }

    fn ops(&self) -> Vec<OpSpec> {
        let mode = if ORDERED { Match::Seq } else { Match::Bag };
        xmark_queries()
            .into_iter()
            .map(|(name, _)| OpSpec { name, mode })
            .collect()
    }

    fn oracle(&self) -> Vec<Digest> {
        oracle_digests(self.catalog(), xmark_queries().iter().map(|(_, q)| *q))
    }

    fn run_op(&mut self, op: usize, tr: &mut Tracer) -> Result<(f64, Output), String> {
        run_plan(self.session.executor(), &self.plans[op], tr)
    }

    fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(self.session.catalog())
    }

    fn plans(&self) -> Vec<PlanSpec> {
        xmark_queries()
            .into_iter()
            .map(|(name, q)| PlanSpec {
                name,
                query: q.to_string(),
                opts: Self::opts(),
            })
            .collect()
    }

    fn xmark_text(&self) -> &str {
        &self.text
    }
}
