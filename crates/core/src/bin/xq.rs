//! `xq` — command-line XQuery over local XML files.
//!
//! ```sh
//! xq --doc auction.xml=path/to/auction.xml 'fn:count(doc("auction.xml")//item)'
//! xq --doc d.xml=data.xml --explain 'unordered { doc("d.xml")//(a|b) }'
//! xq --query-file q.xq --doc auction.xml=auction.xml --baseline --time
//! ```
//!
//! Flags:
//!
//! ```text
//!   --doc <url>=<path>   load an XML file under the fn:doc() URL (repeatable)
//!   --query-file <path>  read the query from a file instead of the argument
//!   --baseline           order-aware compiler (no order indifference)
//!   --unordered          force ordering mode unordered + full analysis
//!   --explain            print the logical DAG, run the query once, and
//!                        print the physical program as one table: per
//!                        slot, the operator (or fused chain), estimated
//!                        vs. actual cardinality and wall time, then the
//!                        fusion, scheduler (with --threads > 1), cost
//!                        and plan-cache counters
//!   --no-cost            disable statistics-driven cost-based planning
//!                        (join reordering, build-side orientation,
//!                        compensation elision); the rule-only planner
//!                        runs instead
//!   --scalar             run the reference arm: the unfused plan with the
//!                        row-at-a-time kernel bodies (no selection
//!                        vectors, no fused chains); results are
//!                        byte-identical to the vectorized default
//!   --time               print compile/execute wall-clock to stderr
//!   --profile            print the per-phase execution profile to stderr
//!   --threads <n>        scheduler workers: independent operators of the
//!                        plan run concurrently (default 1 = serial; each
//!                        operator stays single-threaded; results are
//!                        byte-identical at any thread count)
//!   --plan-cache <n>     plan-cache capacity in prepared plans (default 128)
//!   --timeout <secs>     wall-clock budget for execution (fractional ok)
//!   --deadline-ms <ms>   hard deadline covering load + compile + execute;
//!                        exceeding it exits 3 with EXRQ0007 (the same
//!                        code path xqd uses to shed overdue requests);
//!                        not accepted with --verify (usage error, 64)
//!   --max-rows <n>       cap rows any single operator may materialize
//!   --max-nodes <n>      cap XML nodes constructed during evaluation
//!   --max-depth <n>      cap query expression nesting depth
//!   --verify             run the three-way differential oracle (baseline,
//!                        optimized, %-weakening disabled) and compare the
//!                        results under the applicable equivalence
//!   --inject <spec>      arm deterministic failpoints, e.g.
//!                        doc-io:2,budget-trip:rownum,cancel-after:5
//!                        (env fallback: EXRQ_INJECT)
//!   --quiet              suppress the result; errors still print
//! ```
//!
//! Exit codes: 0 success, 1 static error, 2 dynamic error, 3 budget /
//! timeout / cancellation, 4 I/O error, 5 verification failure (oracle
//! divergence / ill-formed optimizer output), 64 usage. Errors print as
//! one line on stderr, prefixed with the W3C-style code, e.g.
//! `xq: [XPST0003] XQuery error at byte 4: expected expression`.

use exrquy::diag::{ExecutionBudget, Failpoints};
use exrquy::{Error, QueryOptions, Session};
use std::process::exit;
use std::time::{Duration, Instant};

/// Usage errors exit with the conventional sysexits EX_USAGE.
const EXIT_USAGE: i32 = 64;
/// I/O failures (unreadable files) exit with the Io class code.
const EXIT_IO: i32 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: xq [--doc url=path]… [--baseline|--unordered] [--explain] \
         [--no-cost] [--scalar] [--time] [--profile] [--threads <n>] [--plan-cache <n>] \
         [--timeout <secs>] [--deadline-ms <ms>] [--max-rows <n>] \
         [--max-nodes <n>] [--max-depth <n>] [--verify] [--inject <spec>] \
         [--quiet] (<query> | --query-file <path>)"
    );
    exit(EXIT_USAGE);
}

/// Print a pipeline error as one stderr line and exit with its class
/// code (1 static, 2 dynamic, 3 resource, 4 I/O).
fn fail(e: &Error) -> ! {
    eprintln!("xq: {}", e.render_line());
    exit(e.class().exit_code());
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        eprintln!("{flag} expects a value");
        exit(EXIT_USAGE);
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{v}`");
        exit(EXIT_USAGE);
    })
}

fn main() {
    let mut docs: Vec<(String, String)> = Vec::new();
    let mut query: Option<String> = None;
    let mut opts = QueryOptions::honor_prolog();
    let mut budget = ExecutionBudget::default();
    let mut explain = false;
    let mut verify = false;
    let mut inject: Option<String> = None;
    let mut scalar = false;
    let mut no_cost = false;
    let mut threads: Option<usize> = None;
    let mut plan_cache: Option<usize> = None;
    let mut time = false;
    let mut profile = false;
    let mut quiet = false;
    let mut deadline: Option<Instant> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--doc" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let Some((url, path)) = spec.split_once('=') else {
                    eprintln!("--doc expects url=path, got `{spec}`");
                    exit(EXIT_USAGE);
                };
                docs.push((url.to_string(), path.to_string()));
            }
            "--query-file" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("xq: cannot read {path}: {e}");
                    exit(EXIT_IO);
                });
                query = Some(text);
            }
            "--baseline" => opts = QueryOptions::baseline(),
            "--unordered" => opts = QueryOptions::order_indifferent(),
            "--explain" => explain = true,
            "--verify" => verify = true,
            "--inject" => {
                let spec = args.next().unwrap_or_else(|| usage());
                inject = Some(spec);
            }
            "--scalar" => scalar = true,
            "--no-cost" => no_cost = true,
            "--threads" => threads = Some(parse_num("--threads", args.next())),
            "--plan-cache" => {
                plan_cache = Some(parse_num("--plan-cache", args.next()));
            }
            "--time" => time = true,
            "--profile" => profile = true,
            "--quiet" => quiet = true,
            "--timeout" => {
                let secs: f64 = parse_num("--timeout", args.next());
                if secs.is_nan() || secs < 0.0 {
                    eprintln!("--timeout: expected a non-negative number of seconds");
                    exit(EXIT_USAGE);
                }
                budget = budget.with_max_wall(Duration::from_secs_f64(secs));
            }
            "--deadline-ms" => {
                let ms: u64 = parse_num("--deadline-ms", args.next());
                deadline = Some(Instant::now() + Duration::from_millis(ms));
            }
            "--max-rows" => {
                budget = budget.with_max_rows_per_op(parse_num("--max-rows", args.next()));
            }
            "--max-nodes" => {
                budget = budget.with_max_nodes(parse_num("--max-nodes", args.next()));
            }
            "--max-depth" => {
                budget = budget.with_max_depth(parse_num("--max-depth", args.next()));
            }
            "--help" | "-h" => usage(),
            other if query.is_none() && !other.starts_with('-') => {
                query = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(query) = query else { usage() };
    if verify && deadline.is_some() {
        eprintln!("xq: --deadline-ms cannot be combined with --verify: the oracle runs unbounded");
        exit(EXIT_USAGE);
    }
    opts = opts.with_budget(budget).with_vectorized(!scalar);
    // Applied after --baseline/--unordered so they survive either preset.
    if no_cost {
        opts.opt = opts.opt.without_rule("cost-join-reorder");
    }
    if let Some(n) = threads {
        opts = opts.with_threads(n);
    }
    // CLI flag wins over the environment fallback.
    let inject = inject.or_else(|| std::env::var("EXRQ_INJECT").ok());
    if let Some(spec) = &inject {
        match Failpoints::parse(spec) {
            Ok(fp) => opts = opts.with_failpoints(fp),
            Err(e) => {
                eprintln!("--inject: {e}");
                exit(EXIT_USAGE);
            }
        }
    }

    let mut session = Session::new();
    if let Some(capacity) = plan_cache {
        session.set_plan_cache_capacity(capacity);
    }
    session.set_failpoints(opts.failpoints.clone());
    for (url, path) in &docs {
        let xml = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("xq: cannot read {path}: {e}");
            exit(EXIT_IO);
        });
        let started = Instant::now();
        if let Err(e) = session.load_document(url, &xml) {
            eprintln!("xq: loading {path}: {}", e.render_line());
            exit(e.class().exit_code());
        }
        if time {
            eprintln!(
                "loaded {url} ({} bytes) in {:.1} ms",
                xml.len(),
                started.elapsed().as_secs_f64() * 1e3
            );
        }
    }

    if verify {
        let started = Instant::now();
        match session.verify(&query, &opts) {
            Ok(report) => {
                eprintln!(
                    "{} in {:.1} ms",
                    report.summary(),
                    started.elapsed().as_secs_f64() * 1e3
                );
                if !quiet {
                    println!("{}", exrquy::result::serialize_sequence(&report.items));
                }
                return;
            }
            Err(e) => fail(&e),
        }
    }

    let started = Instant::now();
    let plan = match session.prepare(&query, &opts) {
        Ok(p) => p,
        Err(e) => fail(&e),
    };
    let compile_time = started.elapsed();
    if time {
        eprintln!(
            "compiled in {:.1} ms — plan {} (initial {})",
            compile_time.as_secs_f64() * 1e3,
            plan.stats_final,
            plan.stats_initial
        );
    }

    if explain {
        print!("{}", plan.plan_text());
        // One execution feeds the actual-rows and ms columns and the
        // fusion counters; if it fails (budget trip, armed failpoint…)
        // the table still prints with estimates only.
        let run = exrquy::RunOptions {
            deadline,
            ..Default::default()
        };
        let executed = session.execute_with(&plan, &run);
        let profile = match &executed {
            Ok(out) => Some(&out.profile),
            Err(e) => {
                eprintln!(
                    "xq: explain run failed, estimates only: {}",
                    e.render_line()
                );
                None
            }
        };
        println!("-- physical program (estimated vs actual) --");
        print!("{}", plan.explain_table(profile, &session.cache_stats()));
        return;
    }

    // The CLI deadline rides the same RunOptions path the xqd daemon
    // uses: pre-shed if it already passed (covering load + compile
    // time), hard-deadline the budget meter otherwise.
    let run = exrquy::RunOptions {
        deadline,
        ..Default::default()
    };
    let started = Instant::now();
    match session.execute_with(&plan, &run) {
        Ok(out) => {
            if time {
                eprintln!(
                    "executed in {:.1} ms — {} items",
                    started.elapsed().as_secs_f64() * 1e3,
                    out.items.len()
                );
            }
            if profile {
                eprint!("{}", out.profile.render_breakdown(&plan.dag));
            }
            if !quiet {
                println!("{}", out.to_xml());
            }
        }
        Err(e) => fail(&e),
    }
}
