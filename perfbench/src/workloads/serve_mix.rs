//! `serve_mix`: the only workload through accept → queue → dispatch →
//! write, with engine time small per request. An in-process `xqd`
//! (2 workers, queue 64, serial evaluation) serves an XMark document to
//! 2 closed-loop `xqc` clients (retries 0): each client blocks on its
//! reply before sending the next request of its seed-shuffled round of
//! Q1, 2, 5, 6, 8, 13, 17, 20.

use super::oracle_digests;
use crate::check::{Digest, Match};
use crate::inputs::{shuffle, xmark_text};
use crate::layers::Layers;
use crate::stats::{cpu_seconds, median, percentile};
use crate::trace::Tracer;
use crate::workload::{timed, Ctx, OpSpec, Output, PlanSpec, Samples, Workload, MIN_PASSES};
use exrquy::{Executor, QueryOptions, Session};
use exrquy_xmark::query;
use exrquy_xml::rng::SmallRng;
use exrquy_xml::Catalog;
use exrquy_xqc::{Client, Config};
use exrquy_xqd::{spawn, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served mix: cheap lookups, scans, a join and constructors.
const MIX: [usize; 8] = [1, 2, 5, 6, 8, 13, 17, 20];
/// `nproc` is 2 on the reference host; the load generator uses no more.
pub const CLIENTS: usize = 2;

pub struct ServeMix {
    text: String,
    catalog: Arc<Catalog>,
    /// Shares the daemon's plan cache (for its hit rate).
    daemon_executor: Executor,
    handle: ServerHandle,
    clients: Vec<Client>,
    /// Each client's order through the mix.
    rounds: Vec<Vec<usize>>,
    connect_ms: f64,
    response_bytes: u64,
    window_s: f64,
    /// Request latencies of the last window, all clients pooled, and
    /// its completed requests per wall second.
    served_ms: Vec<f64>,
    served_per_s: f64,
}

fn client(addr: &str, idx: usize) -> Client {
    Client::connect(Config {
        max_retries: 0,
        read_timeout: Duration::from_secs(60),
        jitter_seed: 0xbe7c + idx as u64,
        ..Config::new(addr)
    })
}

/// One request as the caller sees it.
fn request(client: &mut Client, op: usize, tr: &mut Tracer) -> Result<(f64, Output), String> {
    let (ms, reply) = timed(|| tr.span("xqc.query", |_| client.query(query(MIX[op]))));
    reply
        .map(|text| (ms, Output::Text(text)))
        .map_err(|e| e.to_string())
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let text = tr.span("xmark.generate", |_| {
            xmark_text(ctx.sizes.xmark_small, ctx.seed)
        });
        let mut session = Session::new();
        tr.span("core.load_document", |_| {
            session
                .load_document("auction.xml", &text)
                .expect("generated XMark parses")
        });
        let catalog = Arc::clone(session.catalog());
        let daemon_executor = session.executor().clone();
        let handle = tr.span("xqd.spawn", |_| {
            spawn(
                ServerConfig {
                    workers: 2,
                    queue_capacity: 64,
                    threads: 0,
                    ..ServerConfig::default()
                },
                session,
            )
            .expect("in-process daemon binds a loopback port")
        });
        let addr = handle.addr().to_string();
        let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x5e7e_0a11);
        let rounds: Vec<Vec<usize>> = (0..CLIENTS)
            .map(|_| {
                let mut order: Vec<usize> = (0..MIX.len()).collect();
                shuffle(&mut order, &mut rng);
                order
            })
            .collect();
        let mut clients: Vec<Client> = (0..CLIENTS).map(|i| client(&addr, i)).collect();
        let (connect_ms, ()) = timed(|| {
            tr.span("xqc.connect", |_| {
                for c in &mut clients {
                    c.ping().expect("daemon answers ping");
                }
            })
        });
        let warmup_rounds = ctx.reps();
        tr.span("warmup", |tr| {
            std::thread::scope(|scope| {
                for (c, order) in clients.iter_mut().zip(&rounds) {
                    let mut tr = Tracer::with_epoch(false, tr.epoch());
                    scope.spawn(move || {
                        for _ in 0..warmup_rounds {
                            for &op in order {
                                request(c, op, &mut tr).expect("warm-up request is served");
                            }
                        }
                    });
                }
            })
        });
        ServeMix {
            text,
            catalog,
            daemon_executor,
            handle,
            clients,
            rounds,
            connect_ms: connect_ms / CLIENTS as f64,
            response_bytes: 0,
            window_s: 0.0,
            served_ms: Vec::new(),
            served_per_s: 0.0,
        }
    }

    fn ops(&self) -> Vec<OpSpec> {
        MIX.iter()
            .map(|n| OpSpec {
                name: format!("q{n:02}"),
                // A served response is one text: it must be the direct
                // execution's serialization, byte for byte.
                mode: Match::Seq,
            })
            .collect()
    }

    /// Two links: the direct in-process execution under the daemon's
    /// options must match the oracle as a bag, and the served text must
    /// be that execution's serialization.
    fn oracle(&self) -> Vec<Digest> {
        let oracle = oracle_digests(Arc::clone(&self.catalog), MIX.iter().map(|&n| query(n)));
        let direct = Executor::new(Arc::clone(&self.catalog));
        MIX.iter()
            .zip(oracle)
            .map(|(&n, oracle)| {
                let out = direct
                    .prepare(query(n), &QueryOptions::order_indifferent())
                    .and_then(|plan| direct.execute(&plan))
                    .unwrap_or_else(|e| panic!("direct execution of Q{n} failed: {e}"));
                let xml = out.to_xml();
                if Match::Bag.holds(Digest::of_items(&out.items, &xml), oracle) {
                    Digest::of_text(&xml)
                } else {
                    // No served text can match: every request of this
                    // operation counts as failed.
                    Digest {
                        seq: !oracle.seq,
                        bag: !oracle.bag,
                    }
                }
            })
            .collect()
    }

    fn run_op(&mut self, op: usize, tr: &mut Tracer) -> Result<(f64, Output), String> {
        request(&mut self.clients[0], op, tr)
    }

    /// The timed window: every client loops over its round until the
    /// seconds are spent. A pass is one client's round of the mix.
    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Samples {
        let ops = self.ops();
        let (started, cpu0) = (Instant::now(), cpu_seconds());
        let per_client: Vec<(Samples, Tracer, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.rounds)
                .enumerate()
                .map(|(idx, (c, order))| {
                    let (ops, mut tr) = (&ops, Tracer::with_epoch(tr.is_on(), tr.epoch()));
                    scope.spawn(move || {
                        let mut s = Samples::new(ops.len());
                        let (mut bytes, mut op_id) = (0u64, idx as u64);
                        while s.pass_ms.len() < MIN_PASSES
                            || started.elapsed().as_secs_f64() < seconds
                        {
                            let mut pass = 0.0;
                            for &op in order {
                                op_id += CLIENTS as u64;
                                tr.set_op(op_id);
                                let result = request(c, op, &mut tr);
                                if let Ok((_, Output::Text(text))) = &result {
                                    bytes += text.len() as u64;
                                }
                                pass += s.record(&ops[op], op, result);
                            }
                            s.pass_ms.push(pass);
                        }
                        (s, tr, bytes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let window_s = started.elapsed().as_secs_f64();
        let mut all = Samples::new(ops.len());
        for (s, client_tr, bytes) in per_client {
            all.absorb(s);
            tr.absorb(client_tr);
            self.response_bytes += bytes;
        }
        all.cpu_s = cpu_seconds() - cpu0;
        self.window_s += window_s;
        self.served_ms = all.op_ms.iter().flatten().copied().collect();
        self.served_per_s = self.served_ms.len() as f64 / window_s;
        eprintln!("serve_mix: closed loop, {CLIENTS} clients");
        all
    }

    fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    fn plans(&self) -> Vec<PlanSpec> {
        MIX.iter()
            .map(|&n| PlanSpec {
                name: format!("q{n:02}"),
                query: query(n).to_string(),
                opts: QueryOptions::order_indifferent(),
            })
            .collect()
    }

    fn xmark_text(&self) -> &str {
        &self.text
    }

    fn finish(self, layers: &mut Layers) {
        let retries: u64 = self.clients.iter().map(|c| c.stats().retries).sum();
        let cache = self.daemon_executor.cache_stats();
        drop(self.clients);
        let stats = self.handle.shutdown();
        // Where the Nagle stall shows: what serving adds to the direct
        // in-process execution of the same mix.
        layers.set(
            "xqd.overhead_ms",
            median(&self.served_ms) - layers.get("core.direct_ms_p50"),
        );
        layers.set("xqd.ops_per_s", self.served_per_s);
        layers.set("xqd.lat_ms_p50", median(&self.served_ms));
        layers.set("xqd.lat_ms_p95", percentile(&self.served_ms, 95.0));
        layers.set("core.cache_hit_rate", cache.hit_rate());
        layers.set("xqd.connect_ms", self.connect_ms);
        layers.set("xqd.queue_peak", stats.queue_peak as f64);
        layers.set("xqd.shed", stats.shed() as f64);
        layers.set("xqd.failed", stats.failed as f64);
        layers.set("xqd.crashed", stats.crashed as f64);
        layers.set("xqd.reconciles", f64::from(u8::from(stats.reconciles())));
        layers.set("xqd.mem_peak_bytes", stats.mem_peak_bytes as f64);
        if self.window_s > 0.0 {
            layers.set(
                "xqd.resp_mb_per_s",
                self.response_bytes as f64 / 1e6 / self.window_s,
            );
        }
        layers.set("xqc.retries", retries as f64);
    }
}
