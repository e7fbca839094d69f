//! Per-operator-kind profile of one XMark query at one scale — the
//! debugging companion to `table2`.
//!
//! The plan is prepared once and executed `1 + runs` times. The first
//! execution is printed on its own: it is **cold** — the first named step
//! of a fresh session builds the document's lazy per-name index
//! (`Document::name_streams()`, ≈ 5 ms at scale 0.2), which no later
//! execution pays. The `runs` executions after it are **warm**, which is
//! what `perfbench`, `table2` and `figure12` time; their per-kind medians
//! are the numbers to compare against those instruments.
//!
//! Each run also prints its node counts — constructed, the fragments
//! they went into, and the result's — whose ratio is the constructors'
//! write amplification (1.0 = every node written once, into the answer).
//!
//! Usage: `profile_query [--query 10] [--scale 0.02] [--baseline] [--runs 5]`

use exrquy::engine::Profile;
use exrquy::QueryOptions;
use exrquy_bench::report::percentile;
use exrquy_bench::{fmt_bytes, xmark_session, Cli};
use exrquy_xmark::{query, ALL_QUERIES};
use std::collections::BTreeMap;

fn main() {
    let cli = Cli::new("profile_query [--query 10] [--scale 0.02] [--baseline] [--runs 5]");
    let n = cli.get("query", 10_usize);
    if !(1..=ALL_QUERIES.len()).contains(&n) {
        cli.fail(&format!("--query: no XMark query {n}"));
    }
    let scale = cli.get("scale", 0.02_f64);
    let runs = cli.get("runs", 5_usize);
    let opts = if cli.has("baseline") {
        QueryOptions::baseline()
    } else {
        QueryOptions::order_indifferent()
    };
    let (session, bytes) = xmark_session(scale);
    eprintln!("Q{n} at scale {scale} ({})", fmt_bytes(bytes));
    let plan = session.prepare(query(n), &opts).expect("compiles");
    eprintln!("plan: {}", plan.stats_final);
    let mut profiles: Vec<Profile> = Vec::with_capacity(1 + runs);
    for _ in 0..1 + runs {
        let out = session.execute(&plan).expect("executes");
        if profiles.is_empty() {
            eprintln!("{} result items", out.items.len());
        }
        let n = out.nodes;
        eprintln!(
            "run {}: {} nodes constructed in {} fragments, {} in the result (x{:.2})",
            profiles.len(),
            n.constructed,
            n.fragments,
            n.result,
            n.constructed as f64 / n.result.max(1) as f64
        );
        profiles.push(out.profile);
    }
    let (cold, warm) = profiles.split_first().expect("one cold run");
    println!("-- cold (first execution of the session) --");
    print_kinds(std::slice::from_ref(cold));
    if !warm.is_empty() {
        println!("-- warm (median of {} runs) --", warm.len());
        print_kinds(warm);
    }
}

/// Per-kind and total milliseconds, each the median over `runs`, largest
/// first.
fn print_kinds(runs: &[Profile]) {
    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        percentile(&ms, 50.0)
    };
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in runs {
        for (kind, d) in p.per_kind() {
            by_kind.entry(kind).or_default().push(d.as_secs_f64() * 1e3);
        }
    }
    let mut kinds: Vec<(&str, f64)> = by_kind.into_iter().map(|(k, v)| (k, median(v))).collect();
    kinds.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (k, ms) in kinds {
        println!("{k:<12} {ms:>10.2} ms");
    }
    let total = median(runs.iter().map(|p| p.total().as_secs_f64() * 1e3).collect());
    println!("{:<12} {:>10.2} ms", "TOTAL", total);
}
