//! xqd — serve eXrQuy queries over line-delimited JSON.
//!
//! ```text
//! xqd --listen 127.0.0.1:7077 --doc site.xml=./site.xml \
//!     [--workers <n>] [--queue <n>] [--max-inflight <n>] \
//!     [--drain-grace-ms <ms>] [--deadline-ms <ms>] \
//!     [--plan-cache <n>] [--mem-watermark <bytes>] [--inject <spec>]
//! ```
//!
//! `--workers` sets how many requests run at once; each request runs
//! serially on the worker that took it.
//!
//! The daemon drains gracefully on SIGTERM/SIGINT or a `shutdown` op:
//! queued requests are shed with `EXRQ0008`, in-flight requests get the
//! grace period, stragglers are cancelled.

use exrquy::Session;
use exrquy_diag::Failpoints;
use exrquy_xqd::{spawn, ServerConfig};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const EXIT_USAGE: i32 = 64;
const EXIT_IO: i32 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: xqd --listen <addr> [--doc <url>=<path>]... \\\n\
         \x20        [--workers <n>] [--queue <n>] [--max-inflight <n>] \\\n\
         \x20        [--drain-grace-ms <ms>] [--deadline-ms <ms>] \\\n\
         \x20        [--plan-cache <n>] [--mem-watermark <bytes>] [--inject <spec>]"
    );
    exit(EXIT_USAGE);
}

static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SHUTDOWN_SIGNAL;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
    }

    /// Install SIGTERM/SIGINT handlers that flip the shutdown flag. The
    /// main thread polls the flag; no async-signal-unsafe work happens
    /// in the handler itself.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("xqd: {flag} requires a numeric argument");
            exit(EXIT_USAGE);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = ServerConfig::default();
    let mut docs: Vec<(String, String)> = Vec::new();
    let mut listen: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next(),
            "--doc" => {
                let Some(spec) = args.next() else { usage() };
                let Some((url, path)) = spec.split_once('=') else {
                    eprintln!("xqd: --doc wants <url>=<path>, got '{spec}'");
                    exit(EXIT_USAGE);
                };
                docs.push((url.to_string(), path.to_string()));
            }
            "--workers" => cfg.workers = parse_num("--workers", args.next()),
            "--queue" => cfg.queue_capacity = parse_num("--queue", args.next()),
            "--max-inflight" => {
                cfg.max_inflight_per_client = parse_num("--max-inflight", args.next())
            }
            "--drain-grace-ms" => {
                cfg.drain_grace = Duration::from_millis(parse_num("--drain-grace-ms", args.next()))
            }
            "--deadline-ms" => {
                cfg.default_deadline = Some(Duration::from_millis(parse_num(
                    "--deadline-ms",
                    args.next(),
                )))
            }
            "--plan-cache" => cfg.plan_cache = Some(parse_num("--plan-cache", args.next())),
            "--mem-watermark" => {
                cfg.mem_watermark = Some(parse_num("--mem-watermark", args.next()))
            }
            "--inject" => {
                let Some(spec) = args.next() else { usage() };
                match Failpoints::parse(&spec) {
                    Ok(fp) => cfg.failpoints = fp,
                    Err(e) => {
                        eprintln!("xqd: --inject: {e}");
                        exit(EXIT_USAGE);
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("xqd: unknown flag '{other}'");
                usage();
            }
        }
    }
    let Some(listen) = listen else { usage() };
    cfg.addr = listen;

    let mut session = Session::new();
    for (url, path) in &docs {
        let xml = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("xqd: cannot read {path}: {e}");
            exit(EXIT_IO);
        });
        if let Err(e) = session.load_document(url, &xml) {
            eprintln!("xqd: loading {path}: {}", e.render_line());
            exit(e.class().exit_code());
        }
        eprintln!("xqd: loaded {url} ({} bytes)", xml.len());
    }

    sig::install();
    let handle = match spawn(cfg, session) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("xqd: cannot bind: {e}");
            exit(EXIT_IO);
        }
    };
    eprintln!("xqd: listening on {}", handle.addr());

    handle.wait_for_shutdown(|| SHUTDOWN_SIGNAL.load(Ordering::SeqCst));
    eprintln!("xqd: draining...");
    let stats = handle.shutdown();
    eprintln!(
        "xqd: done — {} completed, {} failed, {} crashed, {} shed \
         ({} overload / {} deadline / {} drain / {} drained)",
        stats.completed,
        stats.failed,
        stats.crashed,
        stats.shed(),
        stats.shed_overload,
        stats.shed_deadline,
        stats.shed_draining,
        stats.drained,
    );
}
