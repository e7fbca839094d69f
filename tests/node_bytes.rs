//! Heap bytes per node, measured with a counting global allocator (its
//! own test binary, so no other test allocates concurrently).
//!
//! Two figures, reported separately on stderr
//! (`cargo test --release --test node_bytes -- --nocapture`):
//!
//! * a parsed XMark document (scale 0.02): the bytes the `Document`
//!   keeps after the parse — six columns and the text arena (the value
//!   bytes and one 4-byte end offset per valued node) — and the peak
//!   during it;
//! * constructed fragments: the peak heap of executing XMark Q10, the
//!   construction-bound query, over the bytes before it, per node
//!   constructed. This is what the memory gauge's per-node charge,
//!   [`APPROX_NODE_BYTES`], stands for, and the test holds the constant
//!   to within 2× of it.
//!
//! Counts are requested sizes; the allocator's own per-block overhead
//! comes on top.

use exrquy::{QueryOptions, Session};
use exrquy_diag::APPROX_NODE_BYTES;
use exrquy_xml::{parse_document, NamePool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates two counters beside it, so `System`'s
// guarantees are the ones the caller gets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this
        // allocator) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes live now, with the peak reset to it.
fn mark() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[test]
fn bytes_per_node_of_parsed_and_constructed_fragments() {
    let text = exrquy_xmark::generate(&exrquy_xmark::XmarkConfig::at_scale(0.02));

    let mut pool = NamePool::new();
    let before = mark();
    let doc = parse_document(&text, &mut pool).expect("generated XMark parses");
    let kept = LIVE.load(Relaxed) - before;
    let peak = PEAK.load(Relaxed) - before;
    let nodes = doc.len();
    drop(doc);
    let parsed = kept as f64 / nodes as f64;
    eprintln!(
        "parsed XMark 0.02: {nodes} nodes, {parsed:.1} B/node kept, {:.1} B/node peak",
        peak as f64 / nodes as f64
    );

    let mut session = Session::new();
    session.load_document("auction.xml", &text).unwrap();
    let q10 = exrquy_xmark::query(10);
    let opts = QueryOptions::order_indifferent();
    // Compile outside the measurement: the plan cache serves the rerun.
    session.query_with(q10, &opts).unwrap();
    let before = mark();
    let out = session.query_with(q10, &opts).unwrap();
    let peak = PEAK.load(Relaxed) - before;
    let constructed = out.nodes.constructed;
    drop(out);
    let per_node = peak as f64 / constructed as f64;
    eprintln!(
        "constructed (XMark Q10 at 0.02): {constructed} nodes, {per_node:.1} B/node peak; \
         APPROX_NODE_BYTES = {APPROX_NODE_BYTES}"
    );

    assert!(constructed > 1_000, "Q10 constructed {constructed} nodes");
    // Bounds on the parsed figure: at least the 19 bytes of the six
    // columns, and at most 30. The columns, ≈ 4.4 B of text and ≈ 2 B
    // of offsets measure ≈ 26; one heap block per value (44) would not
    // fit.
    assert!((19.0..=30.0).contains(&parsed), "{parsed} B/node");
    let ratio = APPROX_NODE_BYTES as f64 / per_node;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "APPROX_NODE_BYTES = {APPROX_NODE_BYTES} is {ratio:.2}x the measured \
         {per_node:.1} B per constructed node"
    );
}
