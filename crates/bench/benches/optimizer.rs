//! Optimizer-pass ablations: what each of the three rewrites (column
//! dependency analysis, `%`-weakening, step merging) contributes to plan
//! shrinkage, and what the analysis itself costs — the "design choices"
//! benches DESIGN.md calls out.

use exrquy::{QueryOptions, Session};
use exrquy_bench::harness::{BenchmarkId, Criterion};
use exrquy_bench::{criterion_group, criterion_main};
use exrquy_opt::{try_optimize, OptOptions};
use exrquy_xmark::query;

fn plans(session: &Session, n: usize) -> (exrquy_algebra::Dag, exrquy_algebra::OpId) {
    let mut opts = QueryOptions::order_indifferent();
    opts.opt = OptOptions::disabled();
    let plan = session.prepare(query(n), &opts).unwrap();
    (plan.dag.clone(), plan.root)
}

fn bench(c: &mut Criterion) {
    let mut session = Session::new();
    session.load_document("auction.xml", "<site/>").unwrap();

    let mut group = c.benchmark_group("optimize_pass");
    for n in [6usize, 10, 11] {
        let (dag, root) = plans(&session, n);
        let full = OptOptions::default();
        let no_weaken = full
            .without_rule("weaken-criteria")
            .without_rule("weaken-rownum-to-rowid");
        let no_merge = full.without_rule("merge-steps");
        let cda_only = no_weaken.without_rule("merge-steps");
        for (label, opts) in [
            ("full", full),
            ("no-weaken", no_weaken),
            ("no-step-merge", no_merge),
            ("cda-only", cda_only),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("Q{n}")),
                &opts,
                |b, opts| {
                    b.iter_batched(
                        || dag.clone(),
                        |mut d| try_optimize(&mut d, root, opts).unwrap().0,
                        exrquy_bench::harness::BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
