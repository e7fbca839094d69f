//! In-memory span recorder for the per-layer ledger.
//!
//! Spans are recorded by the benchmark's own code, around its calls
//! into each crate's public functions — the program under test carries
//! no tracing of its own yet. A span has a name (`<crate>.<call>`), a
//! start and end in nanoseconds since the tracer's epoch, the span that
//! caused it, and the operation it belongs to. A layer's *self time* is
//! a span's duration minus the part its children cover. Spans stay in
//! memory and are only written out (`--trace-out`) when the run ends.

use exrquy_xqd::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Operation id: spans of one operation execution share it.
    pub op: u64,
}

/// Recorder. A tracer that is off runs the closures and records nothing,
/// so traced and untraced runs execute the same benchmark code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self::with_epoch(on, Instant::now())
    }

    /// A tracer sharing another's clock (one per client thread, merged
    /// with [`absorb`](Self::absorb) when the threads join).
    pub fn with_epoch(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Append another tracer's finished spans (parent links re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in milliseconds of every span, grouped by name, in
    /// recording order.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(kids);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Self-time samples of one span name (empty when never recorded).
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        self.self_ms().remove(name).unwrap_or_default()
    }

    /// The span list as JSON, for `--trace-out`.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Value::Str(s.name.to_string())),
                        ("start_ns", Value::Int(s.start_ns as i64)),
                        ("end_ns", Value::Int(s.end_ns as i64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                        ),
                        ("op", Value::Int(s.op as i64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let by = t.self_ms();
        assert!(by["inner"][0] >= 5.0);
        assert!(by["outer"][0] < by["inner"][0]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        a.span("a", |_| ());
        let mut b = Tracer::with_epoch(true, a.epoch());
        b.span("b", |t| t.span("c", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
