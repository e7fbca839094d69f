//! The six workloads. Each entry of [`NAMES`] is a `--workload` value;
//! `BENCHMARK.json` records why each was chosen.

pub mod catalog_load;
pub mod collection_star;
pub mod compile_cold;
pub mod serve_mix;
pub mod xmark;

use crate::check::Digest;
use crate::trace::Tracer;
use crate::workload::{timed, Output};
use exrquy::{Executor, Prepared, QueryOptions, Session};
use exrquy_xml::Catalog;
use std::sync::Arc;

pub const NAMES: [&str; 6] = [
    "xmark_unordered",
    "xmark_ordered",
    "compile_cold",
    "collection_star",
    "catalog_load",
    "serve_mix",
];

/// The oracle's configuration: the order-aware baseline compiler (no
/// rewrites, no cost planner) on the scalar reference engine.
pub fn oracle_opts() -> QueryOptions {
    QueryOptions::baseline().with_vectorized(false)
}

/// The oracle's copy of a corpus: every document parsed eagerly, one
/// shard.
pub fn reference_catalog(docs: &[(String, String)]) -> Arc<Catalog> {
    let mut reference = Session::new();
    for (url, xml) in docs {
        reference.load_document(url, xml).expect("corpus parses");
    }
    Arc::clone(reference.catalog())
}

/// Oracle digests of `queries` over `catalog`, through an executor of
/// the oracle's own. A query the oracle cannot answer is a broken
/// benchmark, not a measurement.
pub fn oracle_digests<'q>(
    catalog: Arc<Catalog>,
    queries: impl IntoIterator<Item = &'q str>,
) -> Vec<Digest> {
    let executor = Executor::new(catalog);
    queries
        .into_iter()
        .map(|q| {
            let out = executor
                .prepare(q, &oracle_opts())
                .and_then(|plan| executor.execute(&plan))
                .unwrap_or_else(|e| panic!("oracle failed on `{q}`: {e}"));
            Digest::of_items(&out.items, &out.to_xml())
        })
        .collect()
}

/// The query operation: execute a prepared plan and serialize its
/// result (`Executor::execute` + `QueryOutput::to_xml`).
pub fn run_plan(
    executor: &Executor,
    plan: &Prepared,
    tr: &mut Tracer,
) -> Result<(f64, Output), String> {
    let (ms, result) = timed(|| {
        let out = tr.span("core.execute", |_| executor.execute(plan))?;
        let xml = tr.span("core.to_xml", |_| out.to_xml());
        Ok::<_, exrquy::Error>((out, xml))
    });
    let (out, xml) = result.map_err(|e| e.to_string())?;
    Ok((ms, Output::items(out, xml)))
}
