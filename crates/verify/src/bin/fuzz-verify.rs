//! Run the grammar-driven differential fuzzer from the command line.
//!
//! ```text
//! fuzz-verify [--seed N]... [--iters N] [--profile ordered|unordered|both]
//!             [--inject SPEC] [--expect-divergence] [--max-shrink-probes N]
//!             [--lattice]
//! ```
//!
//! Deterministic: the same seed produces the same document and query
//! stream, so a red run reproduces everywhere. Exits 0 when every seed's
//! run is clean (or, under `--expect-divergence`, when every seed found
//! at least one divergence — the planted-fault self-check CI runs), and 1
//! otherwise, printing each divergence's minimized query and culprit
//! rule.
//!
//! `--lattice` switches from the oracle to the configuration lattice
//! (see [`exrquy_verify::lattice`]): the fuzz corpora of every seed —
//! `--iters` single-document cells and as many multi-document cells with
//! their authored joins, under both profiles — run under the reference
//! point and every row of the covering table (cost pass, vectorization,
//! served and chaos transport, nested constructors as written or
//! unnested), and every row must serialize
//! byte-identically.

use exrquy_verify::fuzz::{run_fuzz, FuzzConfig, FuzzProfile};
use exrquy_verify::{run_lattice, Attribution, Lattice};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut seeds: Vec<u64> = Vec::new();
    let mut cfg = FuzzConfig::default();
    let mut expect_divergence = false;
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
            "--iters" => match parse_next(&mut args, "--iters").parse() {
                Ok(n) if n > 0 => cfg.iters = n,
                _ => die("--iters: expected a positive number"),
            },
            "--profile" => match parse_next(&mut args, "--profile").as_str() {
                "ordered" => cfg.profiles = vec![FuzzProfile::Ordered],
                "unordered" => cfg.profiles = vec![FuzzProfile::Unordered],
                "both" => cfg.profiles = vec![FuzzProfile::Ordered, FuzzProfile::Unordered],
                other => die(&format!(
                    "--profile: `{other}` (expected ordered|unordered|both)"
                )),
            },
            "--inject" => {
                match exrquy::diag::Failpoints::parse(&parse_next(&mut args, "--inject")) {
                    Ok(fp) => cfg.failpoints = fp,
                    Err(e) => die(&format!("--inject: {e}")),
                }
            }
            "--max-shrink-probes" => match parse_next(&mut args, "--max-shrink-probes").parse() {
                Ok(n) => cfg.max_shrink_probes = n,
                Err(_) => die("--max-shrink-probes: not a number"),
            },
            "--expect-divergence" => expect_divergence = true,
            "--lattice" => lattice = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: fuzz-verify [--seed N]... [--iters N] \
                     [--profile ordered|unordered|both] [--inject SPEC] \
                     [--expect-divergence] [--max-shrink-probes N] [--lattice]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if seeds.is_empty() {
        seeds.push(cfg.seed);
    }

    if lattice {
        if expect_divergence || !cfg.failpoints.is_empty() || cfg.profiles.len() != 2 {
            die("--lattice does not combine with --inject/--expect-divergence/--profile");
        }
        let mut ok = true;
        for seed in seeds {
            let report = run_lattice(&Lattice {
                seed,
                fuzz_iters: cfg.iters,
                queries: Vec::new(),
                ..Lattice::default()
            });
            eprintln!("{report}");
            ok &= report.passed();
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut ok = true;
    for seed in seeds {
        cfg.seed = seed;
        let report = run_fuzz(&cfg);
        eprintln!("{report}");
        if expect_divergence {
            // Planted-fault self-check: the hunter must find, shrink, and
            // attribute the injected bug.
            if report.clean() {
                eprintln!("fuzz-verify: seed {seed}: expected a divergence, found none");
                ok = false;
            }
            for d in &report.divergences {
                if matches!(d.attribution, Attribution::NotReproduced) {
                    eprintln!(
                        "fuzz-verify: seed {seed}: unstable divergence at iter {}",
                        { d.iteration }
                    );
                    ok = false;
                }
            }
        } else if !report.clean() {
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn die(msg: &str) -> ! {
    eprintln!("fuzz-verify: {msg}");
    std::process::exit(64);
}
