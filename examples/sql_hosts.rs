//! "XQuery on SQL Hosts": the paper's Table 1 shapes the algebra after
//! what SQL:1999 kernels run. `% a:⟨b⟩‖c` is exactly
//! `ROW_NUMBER() OVER (PARTITION BY c ORDER BY b) AS a`, a sorting window;
//! `# a` is `ROW_NUMBER() OVER () AS a`, free on any host (or its ROWID).
//! This example prints a query's numbering operators in that spelling
//! under both compiler configurations: order indifference is what turns
//! the first kind into the second.
//!
//! ```sh
//! cargo run --example sql_hosts
//! ```

use exrquy::algebra::Op;
use exrquy::{Prepared, QueryOptions, Session};

/// Every `%` and `#` of the plan, as the SQL:1999 window it stands for.
fn windows(plan: &Prepared) -> Vec<String> {
    let window = |op: &Op| match op {
        Op::RowNum {
            new, order, part, ..
        } => {
            let mut clauses = Vec::new();
            if let Some(p) = part {
                clauses.push(format!("PARTITION BY {}", p.name()));
            }
            if !order.is_empty() {
                let keys: Vec<String> = order
                    .iter()
                    .map(|k| k.col.name() + if k.desc { " DESC" } else { "" })
                    .collect();
                clauses.push(format!("ORDER BY {}", keys.join(", ")));
            }
            Some(format!(
                "ROW_NUMBER() OVER ({}) AS {}",
                clauses.join(" "),
                new.name()
            ))
        }
        Op::RowId { new, .. } => Some(format!("ROW_NUMBER() OVER () AS {}", new.name())),
        _ => None,
    };
    plan.dag
        .topo_order(plan.root)
        .into_iter()
        .filter_map(|id| window(plan.dag.op(id)))
        .collect()
}

fn main() {
    let mut session = Session::new();
    session
        .load_document("t.xml", "<a><b><c/><d/></b><c/></a>")
        .unwrap();

    let query = r#"fn:count(doc("t.xml")//c)"#;
    println!("query:\n  {query}\n");

    let baseline = session.prepare(query, &QueryOptions::baseline()).unwrap();
    let enabled = session
        .prepare(query, &QueryOptions::order_indifferent())
        .unwrap();
    for (label, plan) in [
        ("order-aware baseline", &baseline),
        ("order indifference enabled", &enabled),
    ] {
        println!("== {label} ==");
        let ws = windows(plan);
        if ws.is_empty() {
            println!("  (no row numbering left in the plan)");
        }
        for w in ws {
            println!("  {w}");
        }
    }
    println!(
        "\nafter normalization (Rule FN:COUNT), Rule FN:UNORDERED and column\n\
         dependency analysis, no ORDER BY window remains — the aggregate\n\
         consumes an unordered table, exactly the paper's point."
    );
    assert!(
        windows(&baseline).iter().any(|w| w.contains("ORDER BY")),
        "the baseline plan should sort"
    );
    assert!(
        !windows(&enabled).iter().any(|w| w.contains("ORDER BY")),
        "unexpected sorting window in the order-indifferent plan"
    );
}
