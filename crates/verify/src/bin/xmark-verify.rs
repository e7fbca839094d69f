//! Run the XMark differential suite from the command line.
//!
//! ```text
//! xmark-verify [--seed N]... [--scale F] [--query N]... [--lattice]
//! ```
//!
//! Exits 0 when every (seed, query) cell passes the three-way oracle and
//! 1 on any divergence, printing the failing cells. CI runs this over a
//! fixed seed matrix. With `--lattice`, additionally runs the XMark corpora of the
//! configuration lattice (see [`exrquy_verify::lattice`]): the queries
//! over the whole document and the shard matrix over the split corpus,
//! under the reference point and every row of the covering table — cost
//! pass, vectorization, worker threads, shard count, served and chaos
//! transport, nested constructors as written or unnested — each
//! serializing byte-identically.

use exrquy_verify::{run_lattice, run_xmark_suite, Lattice, SuiteConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = SuiteConfig::default();
    let mut seeds: Vec<u64> = Vec::new();
    let mut queries: Vec<usize> = Vec::new();
    let mut lattice = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parse_next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--seed" => match parse_next(&mut args, "--seed").parse() {
                Ok(s) => seeds.push(s),
                Err(_) => die("--seed: not a number"),
            },
            "--scale" => match parse_next(&mut args, "--scale").parse() {
                Ok(f) => cfg.scale = f,
                Err(_) => die("--scale: not a number"),
            },
            "--query" => match parse_next(&mut args, "--query").parse() {
                Ok(q) if (1..=20).contains(&q) => queries.push(q),
                _ => die("--query: expected 1..=20"),
            },
            "--lattice" => lattice = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: xmark-verify [--seed N]... [--scale F] [--query N]... [--lattice]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if !seeds.is_empty() {
        cfg.seeds = seeds;
    }
    if !queries.is_empty() {
        cfg.queries = queries;
    }
    let report = run_xmark_suite(&cfg);
    eprintln!("{report}");
    let mut ok = report.all_passed();

    if lattice {
        let lreport = run_lattice(&Lattice {
            scale: cfg.scale,
            seed: cfg.seeds.first().copied().unwrap_or(42),
            fuzz_iters: 0,
            queries: cfg.queries.clone(),
            ..Lattice::default()
        });
        eprintln!("{lreport}");
        ok &= lreport.passed();
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn die(msg: &str) -> ! {
    eprintln!("xmark-verify: {msg}");
    std::process::exit(64);
}
