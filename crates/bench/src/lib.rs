//! Shared harness utilities for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation (§5) has a binary in
//! `src/bin/`:
//!
//! | paper artifact | binary |
//! |----------------|--------|
//! | Table 2 (Q11 profile breakdown) | `table2` |
//! | Figure 12 (XMark speedup sweep) | `figure12` |
//! | Figures 6/9/10 + §4.1 plan sizes | `plan_shapes` |
//!
//! Criterion micro-benches in `benches/` cover the cost model the paper
//! relies on (`%` vs `#`, staircase join vs naive steps) and ablations of
//! the optimizer passes.

pub mod harness;
pub mod report;

use exrquy::{QueryOptions, Session};
use exrquy_xmark::{generate, XmarkConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Build a session with an XMark document at `scale` loaded as
/// `auction.xml`. Returns the session and the serialized document size in
/// bytes.
pub fn xmark_session(scale: f64) -> (Session, usize) {
    let cfg = XmarkConfig::at_scale(scale);
    let xml = generate(&cfg);
    let bytes = xml.len();
    let mut s = Session::new();
    s.load_document("auction.xml", &xml)
        .expect("generated XMark document must parse");
    (s, bytes)
}

/// The order-indifferent configuration with the two join-elimination
/// rules switched off: what order indifference *alone* buys. Those rules
/// are order-agnostic but run only in the optimizing arm, so the paper's
/// ordered-vs-unordered figures are reported both ways (EXPERIMENTS.md).
pub fn order_effect_only() -> QueryOptions {
    let mut opts = QueryOptions::order_indifferent();
    opts.opt = opts
        .opt
        .without_rule("join-elim-key-domain")
        .without_rule("join-self-key");
    opts
}

/// Wall-clock one prepared-query execution.
pub fn time_query(
    session: &mut Session,
    query: &str,
    opts: &QueryOptions,
) -> Result<Duration, exrquy::Error> {
    let plan = session.prepare(query, opts)?;
    let started = Instant::now();
    let out = session.execute(&plan)?;
    let elapsed = started.elapsed();
    std::hint::black_box(out.items.len());
    Ok(elapsed)
}

/// Best-of-`n` timing (the paper reports wall-clock execution times)
/// of **warm** executions: one untimed run goes first, so neither the
/// plan cache miss nor the document's lazily built per-name index
/// (`Document::name_streams()`, paid by the first named step of a
/// session) lands in a timed run — even with `n = 1`.
pub fn best_of(
    session: &mut Session,
    query: &str,
    opts: &QueryOptions,
    n: usize,
) -> Result<Duration, exrquy::Error> {
    time_query(session, query, opts)?;
    let mut best = Duration::MAX;
    for _ in 0..n {
        best = best.min(time_query(session, query, opts)?);
    }
    Ok(best)
}

/// Human-readable byte size.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// A paper bin's command line. The bin's usage line declares its flags:
/// `[--name value]` is an option taking a value, `[--name]` a switch.
/// An undeclared flag, a stray argument, or a missing or unparsable
/// value prints the usage and exits 64 (`EX_USAGE`, as `xq` does).
pub struct Cli {
    usage: &'static str,
    /// Each flag given, with its value when it is an option.
    given: HashMap<String, Option<String>>,
}

impl Cli {
    /// Check the process arguments against `usage`.
    pub fn new(usage: &'static str) -> Self {
        Self::parse(usage, std::env::args().skip(1)).unwrap_or_else(|e| usage_error(usage, &e))
    }

    /// Check `args` (without the program name) against `usage`.
    pub fn parse(
        usage: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let declared: HashMap<&str, bool> = usage
            .split('[')
            .skip(1)
            .filter_map(|group| {
                let mut words = group.split(']').next()?.split_whitespace();
                let name = words.next()?.strip_prefix("--")?;
                Some((name, words.next().is_some()))
            })
            .collect();
        let mut given = HashMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let name = arg.strip_prefix("--").unwrap_or_default();
            let value = match declared.get(name) {
                Some(true) => Some(args.next().ok_or(format!("{arg} expects a value"))?),
                Some(false) => None,
                None => return Err(format!("unknown argument `{arg}`")),
            };
            given.insert(name.to_string(), value);
        }
        Ok(Cli { usage, given })
    }

    /// Value of `--name <v>`, parsed, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default)
            .unwrap_or_else(|e| self.fail(&e))
    }

    /// [`Cli::get`] without the exit.
    pub fn try_get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.given.get(name) {
            Some(Some(v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
            _ => Ok(default),
        }
    }

    /// Presence of a boolean `--name` switch.
    pub fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// Report `message` with the usage and exit 64.
    pub fn fail(&self, message: &str) -> ! {
        usage_error(self.usage, message)
    }
}

fn usage_error(usage: &str, message: &str) -> ! {
    eprintln!("{message}\nusage: {usage}");
    std::process::exit(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_xmark::query;

    #[test]
    fn harness_runs_a_query_at_tiny_scale() {
        let (mut s, bytes) = xmark_session(0.001);
        assert!(bytes > 10_000);
        let d = time_query(&mut s, query(6), &QueryOptions::baseline()).unwrap();
        assert!(d > Duration::ZERO);
        let d2 = best_of(&mut s, query(6), &QueryOptions::order_indifferent(), 2).unwrap();
        assert!(d2 > Duration::ZERO);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(500), "500 B");
        assert_eq!(fmt_bytes(2_500), "2.5 KB");
        assert_eq!(fmt_bytes(12_000_000), "12.0 MB");
    }

    #[test]
    fn only_declared_flags_with_parsable_values_pass() {
        let cli = |args: &[&str]| {
            let usage = "bin [--scale 0.02] [--runs 3] [--baseline]";
            Cli::parse(usage, args.iter().map(|a| a.to_string()))
        };
        let c = cli(&["--runs", "7", "--baseline"]).unwrap();
        assert_eq!(c.get("runs", 3_usize), 7);
        assert_eq!(c.get("scale", 0.02_f64), 0.02);
        assert!(c.has("baseline") && !cli(&[]).unwrap().has("baseline"));
        assert!(cli(&["--runs", "two"])
            .unwrap()
            .try_get("runs", 3_usize)
            .is_err());
        for args in [&["--help"][..], &["--scales", "0.1"], &["0.1"], &["--runs"]] {
            assert!(cli(args).is_err(), "{args:?}");
        }
    }
}
