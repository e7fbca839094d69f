//! Reproduction of the paper's plan-shape artifacts:
//!
//! * **Figure 6(a)/(b)** — XMark Q6 compiled under `ordered` vs
//!   `unordered`: the `%` operators trade for `#`, except the one
//!   iter→seq `%`;
//! * **Figure 9** — Q6 `unordered` after column dependency analysis:
//!   (almost) no residual order computation;
//! * **Figure 10** — `unordered { $t//(c|d) }`: the doc-order-aware union
//!   is cut down to a concatenation;
//! * **§4.1** — Q11's DAG shrinks from 235 to 141 operators under the
//!   analysis (paper numbers; ours differ in absolute size, the shrink is
//!   what's reproduced).
//!
//! Usage: `plan_shapes [--dot <dir>]` (writes Graphviz files when given).

use exrquy::{QueryOptions, Session};
use exrquy_algebra::stats::costly_rownums;
use exrquy_bench::Cli;
use exrquy_opt::OptOptions;
use exrquy_xmark::{query, query_name};

fn main() {
    let cli = Cli::new("plan_shapes [--dot <dir>]");
    let dot_dir: String = cli.get("dot", String::new());

    let mut session = Session::new();
    session
        .load_document("auction.xml", "<site/>")
        .expect("stub document");
    session
        .load_document("t.xml", "<a><b><c/><d/></b><c/></a>")
        .expect("fragment");

    // ---- Figures 6 and 9: Q6 under three configurations
    println!("== Figures 6(a), 6(b), 9: XMark Q6 plan shapes ==");
    println!("paper: 19 ops / 5 % (ordered); all but one % become # (unordered);");
    println!("       order-free after column dependency analysis\n");
    let configs = [
        ("Fig 6(a)  ordered, no analysis", QueryOptions::baseline()),
        ("Fig 6(b)  unordered, no analysis", {
            let mut o = QueryOptions::order_indifferent();
            o.opt = OptOptions::disabled();
            o
        }),
        (
            "Fig 9     unordered + column dependency analysis",
            QueryOptions::order_indifferent(),
        ),
    ];
    println!(
        "{:<50} {:>5} {:>4} {:>4} {:>9}",
        "configuration", "ops", "%", "#", "costly %"
    );
    for (label, opts) in &configs {
        let plan = session.prepare(query(6), opts).expect("Q6 compiles");
        let s = &plan.stats_final;
        println!(
            "{label:<50} {:>5} {:>4} {:>4} {:>9}",
            s.total,
            s.rownums(),
            s.rowids(),
            costly_rownums(&plan.dag, plan.root)
        );
        if !dot_dir.is_empty() {
            let file = format!("{dot_dir}/q6_{}.dot", slug(label));
            std::fs::write(&file, plan.plan_dot(label)).expect("write dot");
            eprintln!("wrote {file}");
        }
    }

    // ---- Figure 10: trading | for ,
    println!("\n== Figure 10: unordered {{ $t//(c|d) }} ==");
    println!("paper: the doc-order-aware union is cut down to sequence concatenation\n");
    let q = r#"let $t := doc("t.xml")/a return unordered { $t//(c|d) }"#;
    for (label, opts) in [
        ("ordered baseline", QueryOptions::baseline()),
        ("unordered + analysis", QueryOptions::order_indifferent()),
    ] {
        let plan = session.prepare(q, &opts).expect("compiles");
        let s = &plan.stats_final;
        println!(
            "{label:<24} {:>3} ops, {} %, {} #, {} costly % — union ops: {}",
            s.total,
            s.rownums(),
            s.rowids(),
            costly_rownums(&plan.dag, plan.root),
            s.count("∪̇"),
        );
        if !dot_dir.is_empty() {
            let file = format!("{dot_dir}/union_{}.dot", slug(label));
            std::fs::write(&file, plan.plan_dot(label)).expect("write dot");
        }
    }

    // ---- §4.1: plan size reduction per query
    println!("\n== §4.1: column dependency analysis, plan sizes (Q1–Q20) ==");
    println!("paper reference point: Q11 shrinks 235 → 141 operators\n");
    println!(
        "{:>5} {:>13} {:>13} {:>8}  {:>9} {:>9}",
        "query", "initial ops", "final ops", "shrink", "costly %", "final %"
    );
    for n in 1..=20 {
        let plan = session
            .prepare(query(n), &QueryOptions::order_indifferent())
            .expect("compiles");
        let shrink =
            100.0 * (1.0 - plan.stats_final.total as f64 / plan.stats_initial.total as f64);
        println!(
            "{:>5} {:>13} {:>13} {:>7.0}%  {:>9} {:>9}",
            query_name(n),
            plan.stats_initial.total,
            plan.stats_final.total,
            shrink,
            costly_rownums(&plan.dag, plan.root),
            plan.stats_final.rownums(),
        );
    }
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .to_lowercase()
}
