//! The workload contract and the batch measurement loop.
//!
//! A workload is a fixed list of operations over seeded inputs. A *pass*
//! runs every operation once in fixed order; the timed part of a run
//! repeats passes until the requested seconds are spent. Each operation
//! times its own measured part, so output checking and bookkeeping stay
//! off the clock.

use crate::check::{Digest, Match};
use crate::inputs::{steady_xmark_seed, Sizes};
use crate::stats::cpu_seconds;
use crate::trace::Tracer;
use exrquy::{QueryOptions, ResultItem};
use exrquy_xml::Catalog;
use std::sync::Arc;
use std::time::Instant;

/// What a run was asked for.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    pub quick: bool,
    /// Generator seed of the scale-`sizes.xmark` document.
    pub xmark_seed: u64,
}

impl Ctx {
    /// `big_xmark`: the workload generates the scale-`sizes.xmark`
    /// document, so its generator seed is searched for here (see
    /// [`steady_xmark_seed`]), where no set-up is timed doing it.
    pub fn new(seed: u64, quick: bool, big_xmark: bool) -> Self {
        let sizes = Sizes::new(quick);
        Ctx {
            seed,
            sizes,
            quick,
            xmark_seed: if big_xmark {
                steady_xmark_seed(sizes.xmark, seed)
            } else {
                seed
            },
        }
    }

    /// How often anything reported as a median of repetitions is
    /// repeated: set-ups, probe measurements, warm-up rounds. The smoke
    /// test's `--quick` does each once.
    pub fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub struct OpSpec {
    pub name: String,
    /// How its output is held against the oracle digest.
    pub mode: Match,
}

/// One query of the workload's query set, for the per-layer ledger.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    pub name: String,
    pub query: String,
    pub opts: QueryOptions,
}

/// What an operation produced, to be digested off the clock.
pub enum Output {
    /// A query result and its `to_xml()` serialization.
    Items { items: Vec<ResultItem>, xml: String },
    /// A result that arrived as text (a served response).
    Text(String),
    /// The digest of an output produced earlier in this run that this
    /// one is known to equal (a plan with the census of one already
    /// executed).
    Known(Digest),
}

impl Output {
    pub fn items(out: exrquy::QueryOutput, xml: String) -> Self {
        Output::Items {
            items: out.items,
            xml,
        }
    }

    pub fn digest(&self) -> Digest {
        match self {
            Output::Items { items, xml } => Digest::of_items(items, xml),
            Output::Text(text) => Digest::of_text(text),
            Output::Known(d) => *d,
        }
    }
}

/// Time `f`, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Raw measurements of one timed window.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Per operation, the milliseconds of each execution.
    pub op_ms: Vec<Vec<f64>>,
    /// Per operation, every distinct output digest and how often it
    /// was produced. They are held against the oracle once the window
    /// is over ([`Samples::check`]), so that the oracle's memory is no
    /// part of the workload's peak.
    pub outputs: Vec<Vec<(Digest, u64)>>,
    /// Milliseconds of each complete pass.
    pub pass_ms: Vec<f64>,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human reading stderr.
    pub failures: Vec<String>,
}

impl Samples {
    pub fn new(ops: usize) -> Self {
        Samples {
            op_ms: vec![Vec::new(); ops],
            outputs: vec![Vec::new(); ops],
            ..Samples::default()
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Record one finished operation and the digest of its output.
    pub fn record(
        &mut self,
        spec: &OpSpec,
        op: usize,
        result: Result<(f64, Output), String>,
    ) -> f64 {
        self.attempted += 1;
        match result {
            Ok((ms, out)) => {
                self.op_ms[op].push(ms);
                let digest = out.digest();
                match self.outputs[op].iter_mut().find(|(d, _)| *d == digest) {
                    Some((_, times)) => *times += 1,
                    None => self.outputs[op].push((digest, 1)),
                }
                ms
            }
            Err(e) => {
                self.fail(format!("{}: {e}", spec.name));
                0.0
            }
        }
    }

    /// Add the samples of another client or window of the same workload.
    pub fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in self.op_ms.iter_mut().zip(other.op_ms) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.outputs.iter_mut().zip(other.outputs) {
            mine.extend(theirs);
        }
        self.pass_ms.extend(other.pass_ms);
        self.cpu_s += other.cpu_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }

    /// Hold every recorded output against the oracle: an execution
    /// whose digest differs counts as failed.
    pub fn check(&mut self, ops: &[OpSpec], expect: &[Digest]) {
        for ((spec, outputs), expect) in ops
            .iter()
            .zip(std::mem::take(&mut self.outputs))
            .zip(expect)
        {
            for (digest, times) in outputs {
                if !spec.mode.holds(digest, *expect) {
                    self.failed += times - 1;
                    self.fail(format!(
                        "{}: output differs from the oracle ({times} times)",
                        spec.name
                    ));
                }
            }
        }
    }
}

/// Passes every window completes at least, however short it is.
pub const MIN_PASSES: usize = 2;

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether `setup` generates the scale-`sizes.xmark` document (from
    /// `Ctx::xmark_seed`).
    const BIG_XMARK: bool = false;

    /// Generate the inputs from the seed, load them, prepare and warm
    /// up: everything before the first timed operation (`setup_s`).
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self;

    fn ops(&self) -> Vec<OpSpec>;

    /// The oracle digest of every operation (see [`crate::check`]).
    fn oracle(&self) -> Vec<Digest>;

    /// Run operation `op` once; returns the milliseconds of its
    /// measured part and its output.
    fn run_op(&mut self, op: usize, tr: &mut Tracer) -> Result<(f64, Output), String>;

    /// The timed window: passes until `seconds` are spent.
    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Samples {
        let ops = self.ops();
        let mut s = Samples::new(ops.len());
        let (started, cpu0) = (Instant::now(), cpu_seconds());
        let mut op_id = 0u64;
        while s.pass_ms.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
            let mut pass = 0.0;
            for (i, spec) in ops.iter().enumerate() {
                op_id += 1;
                tr.set_op(op_id);
                let result = tr.span("op", |tr| self.run_op(i, tr));
                pass += s.record(spec, i, result);
            }
            s.pass_ms.push(pass);
        }
        s.cpu_s = cpu_seconds() - cpu0;
        s
    }

    /// The catalog and query set the per-layer ledger compiles and
    /// executes in process.
    fn catalog(&self) -> Arc<Catalog>;
    fn plans(&self) -> Vec<PlanSpec>;

    /// The XMark text the `xml` probes parse, walk and serialize.
    fn xmark_text(&self) -> &str;

    /// Stop what `setup` started; per-layer metrics only this workload
    /// can see go into `layers`.
    fn finish(self, _layers: &mut crate::layers::Layers) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_execution_with_a_wrong_output_counts_as_failed() {
        let spec = OpSpec {
            name: "op".to_string(),
            mode: Match::Seq,
        };
        let (right, wrong) = (Digest::of_text("right"), Digest::of_text("wrong"));
        let mut client = Samples::new(1);
        client.record(&spec, 0, Ok((1.0, Output::Known(right))));
        client.record(&spec, 0, Ok((1.0, Output::Known(wrong))));
        client.record(&spec, 0, Err("refused".to_string()));
        let mut s = Samples::new(1);
        s.record(&spec, 0, Ok((1.0, Output::Known(wrong))));
        s.absorb(client);
        assert_eq!((s.attempted, s.failed), (4, 1));
        s.check(&[spec], &[right]);
        assert_eq!((s.attempted, s.failed), (4, 3));
        assert_eq!(s.op_ms[0].len(), 3);
    }
}
