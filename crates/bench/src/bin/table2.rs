//! Reproduction of the paper's **Table 2**: the execution-time profile of
//! XMark Q11.
//!
//! The paper reports (558 MB instance, order indifference ignored):
//!
//! ```text
//! Sub-expression                              Time [ms]      %
//! $auction/site/people/person                       107    <1 %
//! $auction/site/…/initial                           144    <1 %
//! …/@income, 5000 * $i (+ atomization)              949     2 %
//! join (of $p and $i)                            23,989    45 %
//! return $i  (iter → seq)                        23,861    45 %
//! <items name=…</items>                             627     1 %
//! fn:count($l)                                    3,367     6 %
//! ```
//!
//! and shows that enabling order indifference removes the `iter → seq`
//! reorder entirely (≈45 % saved). We reproduce the breakdown by operator
//! phase for the baseline and for the order-indifferent compiler with and
//! without its (order-agnostic) join elimination.
//!
//! Usage: `table2 [--scale 0.02] [--runs 3]`

use exrquy::{QueryOptions, Session};
use exrquy_bench::{fmt_bytes, order_effect_only, xmark_session, Cli};
use exrquy_xmark::query;
use std::time::Duration;

fn main() {
    let cli = Cli::new("table2 [--scale 0.02] [--runs 3]");
    let scale = cli.get("scale", 0.02_f64);
    let runs = cli.get("runs", 3_usize);

    println!("== Table 2: Q11 profile breakdown ==");
    let (mut session, bytes) = xmark_session(scale);
    println!(
        "XMark scale {scale} ({}, {} nodes)\n",
        fmt_bytes(bytes),
        session.store_nodes()
    );

    let base_total = profile(
        &mut session,
        "baseline (order indifference ignored)",
        &QueryOptions::baseline(),
        runs,
    );
    // The paper's comparison: order indifference alone, the map joins
    // between ⋈θ and Count still in place in both arms.
    let order_total = profile(
        &mut session,
        "order indifference enabled, join elimination off",
        &order_effect_only(),
        runs,
    );
    let oi_total = profile(
        &mut session,
        "order indifference enabled (as shipped)",
        &QueryOptions::order_indifferent(),
        runs,
    );

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let saved = |d: Duration| 100.0 * (1.0 - d.as_secs_f64() / base_total.as_secs_f64().max(1e-12));
    println!(
        "total: baseline {:.1} ms; order only {:.1} ms — {:.0} % saved; as shipped {:.1} ms — {:.0} % saved",
        ms(base_total),
        ms(order_total),
        saved(order_total),
        ms(oi_total),
        saved(oi_total)
    );
    println!("(paper: the iter→seq reorder alone accounted for 45 %)");
}

fn profile(session: &mut Session, label: &str, opts: &QueryOptions, runs: usize) -> Duration {
    let plan = session.prepare(query(11), opts).expect("Q11 compiles");
    // One untimed warm-up (the session's first execution builds the
    // document's lazy per-name index), then the best-of-N profile.
    session.execute(&plan).expect("Q11 executes");
    let mut best: Option<(Duration, exrquy::engine::Profile)> = None;
    for _ in 0..runs.max(1) {
        let out = session.execute(&plan).expect("Q11 executes");
        let total = out.profile.total();
        if best.as_ref().is_none_or(|(t, _)| total < *t) {
            best = Some((total, out.profile));
        }
    }
    let (total, prof) = best.unwrap();
    println!("-- {label} --");
    println!(
        "plan: {} (initial {})",
        plan.stats_final, plan.stats_initial
    );
    print!("{}", prof.render_breakdown(&plan.dag));
    println!();
    total
}
