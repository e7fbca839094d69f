//! `perf` — the one seeded benchmark of the eXrQuy reproduction.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--trace-out <file>]
//! perf --all --seed <n> [--seconds <s>] [--trace <0|1>] [--repeat <k>] [--quick] --out <file>   (appends)
//! perf --compare <a.json> <b.json>
//! perf --bless --seed <n>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one
//! process, and as the last line of standard output one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. The
//! other forms are for people: `--all` runs every workload in a child
//! process of its own (so `VmHWM` is per workload) and writes a run-set
//! file, `--compare` holds two run sets against the bounds of
//! `BENCHMARK.json`, `--bless` writes a seed's golden file. See
//! `perfbench/README.md`.

mod check;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;
mod workloads;

use check::Golden;
use exrquy_xqd::json::{obj, parse, Value};
use layers::{Layers, PER_LAYER};
use report::{end_to_end, metric_lines, result_line, END_TO_END};
use stats::{median, peak_rss_mb};
use std::process::{Command, ExitCode};
use trace::Tracer;
use workload::{timed, Ctx, Workload};
use workloads::catalog_load::CatalogLoad;
use workloads::collection_star::CollectionStar;
use workloads::compile_cold::CompileCold;
use workloads::serve_mix::{ServeMix, CLIENTS};
use workloads::xmark::Xmark;

/// Most set-ups one untraced run makes; `setup_s` is their median.
const MAX_SETUPS: usize = 15;
/// Share of a traced run's seconds spent untraced, as the base of
/// `trace.overhead_ratio`.
const UNTRACED_SHARE: f64 = 0.3;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_out: Option<String>,
    all: bool,
    repeat: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 42,
        seconds: 10.0,
        repeat: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--repeat" => {
                a.repeat = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace-out" => a.trace_out = Some(value("a file")?),
            "--out" => a.out = Some(value("a file")?),
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Call `$f::<W>($args)` for the workload type named `$name`.
macro_rules! for_workload {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            "xmark_unordered" => Ok($f::<Xmark<false>>($($arg),*)),
            "xmark_ordered" => Ok($f::<Xmark<true>>($($arg),*)),
            "compile_cold" => Ok($f::<CompileCold>($($arg),*)),
            "collection_star" => Ok($f::<CollectionStar>($($arg),*)),
            "catalog_load" => Ok($f::<CatalogLoad>($($arg),*)),
            "serve_mix" => Ok($f::<ServeMix>($($arg),*)),
            other => Err(format!(
                "unknown workload `{other}` (one of: {})",
                workloads::NAMES.join(", ")
            )),
        }
    };
}

/// One run of one workload; returns the result object.
fn run<W: Workload>(a: &Args) -> Value {
    let ctx = Ctx::new(a.seed, a.quick, W::BIG_XMARK);
    // Set up: once when the set-up spans feed the ledger; when
    // `setup_s` is reported, `reps` times and on until a second is
    // spent, so that a 70 ms set-up is a median of 15.
    let mut tr = Tracer::new(a.trace);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w = None;
    let wanted = if a.trace { 1 } else { ctx.reps() };
    while setup_s.len() < wanted
        || (wanted > 1 && setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < 1.0)
    {
        if let Some(previous) = w.take() {
            W::finish(previous, &mut Layers::new());
        }
        let (ms, fresh) = timed(|| W::setup(&ctx, &mut tr));
        setup_s.push(ms / 1e3);
        w = Some(fresh);
    }
    let mut w: W = w.expect("at least one set-up");

    let ops = w.ops();
    let mut layers = Layers::new();
    let mut samples = if a.trace {
        let mut both = w.measure(a.seconds * UNTRACED_SHARE, &mut Tracer::new(false));
        let traced = w.measure(a.seconds * (1.0 - UNTRACED_SHARE), &mut tr);
        let reps = ctx.reps();
        layers::xml_probes(w.xmark_text(), reps, &mut tr, &mut layers);
        layers::compile_ledger(&w.catalog(), &w.plans(), reps, &mut tr, &mut layers);
        layers::engine_ledger(&w.catalog(), &w.plans(), reps, &mut tr, &mut layers);
        layers.set(
            "trace.overhead_ratio",
            median(&traced.pass_ms) / median(&both.pass_ms),
        );
        both.absorb(traced);
        both
    } else {
        w.measure(a.seconds, &mut tr)
    };
    // The workload's own peak: set-ups and the timed window. The oracle
    // below copies the corpus and runs the scalar engine in this same
    // process, so the high-water mark is read before it.
    let peak_rss_mb = peak_rss_mb();

    // The oracle, the golden file that pins it, and the recorded
    // outputs against it.
    let expect = w.oracle();
    samples.check(&ops, &expect);
    let golden = if ctx.quick {
        None
    } else {
        Golden::load(a.seed)
    };
    let mut failed = 0;
    for (spec, digest) in ops.iter().zip(&expect) {
        if golden
            .as_ref()
            .is_some_and(|g| g.get(W::NAME, &spec.name) != Some(*digest))
        {
            eprintln!(
                "{} {}: oracle output differs from the golden file",
                W::NAME,
                spec.name
            );
            failed += 1;
        }
    }
    eprintln!(
        "{}: seed {} checked={} ({} operations against the oracle)",
        W::NAME,
        a.seed,
        golden.is_some(),
        ops.len()
    );
    w.finish(&mut layers);
    let metrics: Vec<(&str, f64)> = if a.trace {
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, layers.get(name)))
            .collect()
    } else {
        end_to_end(&samples, &setup_s, peak_rss_mb)
    };
    for why in samples.failures.iter().take(5) {
        eprintln!("{}: FAILED {why}", W::NAME);
    }
    // The rows behind `op_ms_geomean`.
    for (spec, ms) in ops.iter().zip(&samples.op_ms) {
        eprintln!(
            "{} op {} median {:.4} ms over {} executions",
            W::NAME,
            spec.name,
            median(ms),
            ms.len()
        );
    }
    if let Some(path) = &a.trace_out {
        std::fs::write(path, tr.to_json().render())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
    eprintln!(
        "{}: {} passes, {} operations attempted, {} failed",
        W::NAME,
        samples.pass_ms.len(),
        samples.attempted,
        samples.failed + failed
    );
    result_line(
        samples.attempted,
        samples.failed + failed,
        &metrics,
        if a.trace { PER_LAYER } else { END_TO_END },
    )
}

/// The oracle digests of one workload, into `golden`.
fn bless<W: Workload>(seed: u64, golden: &mut Golden) {
    let ctx = Ctx::new(seed, false, W::BIG_XMARK);
    let w = W::setup(&ctx, &mut Tracer::new(false));
    for (spec, digest) in w.ops().iter().zip(w.oracle()) {
        golden.insert(W::NAME, &spec.name, digest);
    }
    w.finish(&mut Layers::new());
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `--all`: every workload in a child process of its own.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    let mut geomeans = std::collections::BTreeMap::new();
    for name in workloads::NAMES {
        for _ in 0..a.repeat {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }]);
            if a.quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().map_err(|e| format!("{name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result = parse(last)
                .map_err(|e| format!("{name}: no result line ({}): {last}", e.message))?;
            if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                all_correct = false;
            }
            print!("{}", metric_lines(name, &result));
            if let Some(g) = result
                .get("metrics")
                .and_then(|m| m.get("op_ms_geomean"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
            {
                geomeans.insert(name, g);
            }
            let mut entry = result.as_object().cloned().unwrap_or_default();
            entry.insert("workload".to_string(), Value::Str(name.to_string()));
            runs.push(Value::Object(entry));
        }
    }
    if let (Some(o), Some(u)) = (
        geomeans.get("xmark_ordered"),
        geomeans.get("xmark_unordered"),
    ) {
        // The paper's Figure 12 number; information, not a gate.
        println!("info fig12_geomean_ratio {} ratio (base {u} ms)", o / u);
    }
    let header = obj(vec![
        (
            "host_cores",
            Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
        ("rustc", Value::Str(tool_version("rustc", &["--version"]))),
        (
            "commit",
            Value::Str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Int(a.seed as i64)),
        ("seconds", Value::Float(a.seconds)),
        ("trace", Value::Bool(a.trace)),
        ("quick", Value::Bool(a.quick)),
        ("load_generator_threads", Value::Int(CLIENTS as i64)),
    ]);
    if let Some(path) = &a.out {
        // An existing run set keeps its header and gains these runs, so
        // that two sets can be recorded alternately, run by run.
        let existing = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| parse(&text).ok());
        let (header, mut all_runs) = match &existing {
            Some(doc) => (
                doc.get("header").cloned().unwrap_or(header),
                doc.get("runs")
                    .and_then(Value::as_array)
                    .map(<[Value]>::to_vec)
                    .unwrap_or_default(),
            ),
            None => (header, Vec::new()),
        };
        all_runs.extend(runs);
        let doc = obj(vec![("header", header), ("runs", Value::Array(all_runs))]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

/// Keep freed memory mapped. With glibc's defaults the engine's large
/// buffers are unmapped on free and faulted in again by the next
/// operation; on the reference microVM those faults cost 2 s of system
/// time per 10 s window in `collection_star` and made its pass time
/// bimodal (49 or 65 ms) between identical runs. Every workload runs
/// under the same setting, parent and change alike.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only stores two tunables of glibc's allocator;
    // it is called first thing in `main`, before another thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_MAX, 0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(64);
        }
    };
    let outcome: Result<bool, String> = if let Some((x, y)) = &a.compare {
        std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
            .and_then(|spec| report::compare(&spec, x, y))
    } else if a.bless {
        let mut golden = Golden::default();
        for name in workloads::NAMES {
            for_workload!(name, bless(a.seed, &mut golden)).expect("NAMES are workloads");
        }
        let path = Golden::path(a.seed);
        std::fs::create_dir_all(path.parent().expect("golden files live in a directory"))
            .and_then(|()| std::fs::write(&path, golden.render(a.seed)))
            .map(|()| true)
            .map_err(|e| format!("{}: {e}", path.display()))
    } else if a.all {
        run_all(&a)
    } else {
        match a.workload.as_deref() {
            None => Err("one of --workload, --all, --compare, --bless is required".to_string()),
            Some(name) => for_workload!(name, run(&a)).map(|result| {
                print!("{}", metric_lines(name, &result));
                println!("{}", result.render());
                result.get("correct") == Some(&Value::Bool(true))
            }),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
