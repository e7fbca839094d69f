//! Reproduction of the paper's **Figure 12**: observed speedup from order
//! indifference over the complete XMark query set, across document sizes.
//!
//! The paper sweeps documents from 1 MB to 10 GB and reports speedups of
//! 0–10 000 % (logarithmic outliers Q6/Q7 from step merging, Q11/Q12 from
//! the removed iter→seq reorder). A speedup of 100 % means the
//! order-indifferent plans execute twice as fast.
//!
//! Every query is timed three ways: baseline, enabled as shipped, and
//! enabled with the key/domain join elimination off
//! ([`order_effect_only`]) — the "order only" columns, which isolate what
//! the paper measures from an order-agnostic rewrite only the optimizing
//! arm runs.
//!
//! Usage:
//! `figure12 [--scales 0.001,0.01,0.1] [--runs 2] [--cutoff-ms 30000] [--queries 1..20]`
//!
//! Default scales 0.001/0.01/0.1 correspond to ≈0.1/1/10 MB-class
//! instances on this generator (the paper's shape, laptop-sized); pass
//! `--scales 1` for the 100 MB-class run.

use exrquy::QueryOptions;
use exrquy_bench::{best_of, fmt_bytes, order_effect_only, xmark_session, Cli};
use exrquy_xmark::{query, query_name};
use std::time::Duration;

fn main() {
    let cli = Cli::new(
        "figure12 [--scales 0.001,0.01,0.1] [--runs 2] [--cutoff-ms 30000] [--queries 1..20]",
    );
    let scales = cli.get("scales", String::from("0.001,0.01,0.1"));
    let scales: Vec<f64> = scales
        .split(',')
        .map(|s| s.trim().parse())
        .collect::<Result<_, _>>()
        .unwrap_or_else(|_| cli.fail(&format!("--scales: cannot parse `{scales}`")));
    let runs = cli.get("runs", 2_usize);
    let cutoff = Duration::from_millis(cli.get("cutoff-ms", 30_000_u64));
    let spec = cli.get("queries", String::from("1..20"));
    let queries = parse_queries(&spec)
        .unwrap_or_else(|| cli.fail(&format!("--queries: cannot parse `{spec}`")));

    println!("== Figure 12: speedup of order indifference on XMark ==");
    println!("speedup = t_baseline / t_enabled - 1 (100 % ⇒ twice as fast)\n");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut header = vec!["query".to_string()];
    let mut per_scale: Vec<Vec<Option<f64>>> = Vec::new();

    for &scale in &scales {
        let (mut session, bytes) = xmark_session(scale);
        header.push(format!("{} ", fmt_bytes(bytes)));
        header.push("order only".to_string());
        eprintln!(
            "scale {scale}: {} / {} nodes",
            fmt_bytes(bytes),
            session.store_nodes()
        );
        let (mut shipped, mut order_only) = (Vec::new(), Vec::new());
        for &n in &queries {
            let q = query(n);
            let base = best_of(&mut session, q, &QueryOptions::baseline(), runs);
            let speedups = match base {
                Ok(tb) if tb <= cutoff => {
                    let mut speedup = |opts: &QueryOptions| {
                        let te = best_of(&mut session, q, opts, runs).expect("enabled run failed");
                        100.0 * (tb.as_secs_f64() / te.as_secs_f64().max(1e-9) - 1.0)
                    };
                    let as_shipped = speedup(&QueryOptions::order_indifferent());
                    Some((as_shipped, speedup(&order_effect_only())))
                }
                Ok(_) => None, // over cutoff (paper: 30 s interactive cutoff)
                Err(e) => panic!("{}: baseline failed: {e}", query_name(n)),
            };
            eprintln!(
                "  {:>4}: {}",
                query_name(n),
                speedups.map_or("(cutoff)".into(), |(s, o)| format!(
                    "{s:+.0} % (order only {o:+.0} %)"
                ))
            );
            shipped.push(speedups.map(|(s, _)| s));
            order_only.push(speedups.map(|(_, o)| o));
        }
        per_scale.push(shipped);
        per_scale.push(order_only);
    }

    for (qi, &n) in queries.iter().enumerate() {
        let mut row = vec![query_name(n)];
        for col in &per_scale {
            row.push(match col[qi] {
                Some(s) => format!("{s:+.0} %"),
                None => "—".into(),
            });
        }
        rows.push(row);
    }

    // Render the table.
    println!();
    let widths: Vec<usize> = (0..header.len())
        .map(|c| {
            rows.iter()
                .map(|r| r[c].chars().count())
                .chain(std::iter::once(header[c].chars().count()))
                .max()
                .unwrap()
        })
        .collect();
    let print_row = |cells: &[String], widths: &[usize]| {
        let line: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", line.join(" | "));
    };
    print_row(&header, &widths);
    for r in &rows {
        print_row(r, &widths);
    }
    println!(
        "\npaper shape: most queries gain 0–250 %; Q6/Q7 are logarithmic\n\
         outliers (step merging); Q11/Q12 gain from the removed iter→seq\n\
         reorder; '—' marks baseline runs over the cutoff. \"order only\"\n\
         repeats the column to its left with the join-elimination rules off."
    );
}

/// `a..b` (inclusive) or a comma list of XMark query numbers, each in
/// 1..=20.
fn parse_queries(spec: &str) -> Option<Vec<usize>> {
    let queries: Vec<usize> = match spec.split_once("..") {
        Some((a, b)) => (a.trim().parse().ok()?..=b.trim().parse().ok()?).collect(),
        None => spec
            .split(',')
            .map(|s| s.trim().parse().ok())
            .collect::<Option<_>>()?,
    };
    let known = 1..=exrquy_xmark::ALL_QUERIES.len();
    (!queries.is_empty() && queries.iter().all(|n| known.contains(n))).then_some(queries)
}
