//! The configuration lattice: one byte-identity differential for every
//! execution axis.
//!
//! The paper's claim is an invariance — trading `%` for `#` may change
//! the plan, never the answer beyond the admissible permutations — and
//! every layer built on top makes the same promise for its own axis: the
//! cost pass, vectorization (which also pits the name-stream step kernel
//! against the staircase join), the served transport — and the
//! compiler's flattening of nested constructors into
//! twigs, which has no option to flip and is checked metamorphically
//! ([`Constructors`]). This module states that promise once. A [`Config`]
//! names one point of the configuration space; each *cell* (corpus,
//! query, compiler profile) is executed once under the [`REFERENCE`]
//! point (uncosted, scalar, direct, constructors as written) and
//! once under every row of the [`TABLE`], and each row must
//! render the same items in the same order — or fail with the same error
//! code ([`compare`]). Comparison is exact sequence equality, *not* the
//! bag equivalence the unordered mode would grant: the ordering profile
//! is a property of the cell, because it changes the admissible answer
//! set; every other axis must be invisible.
//!
//! **Covering table.** [`TABLE`] is an explicit list, not a generator:
//! eleven rows that contain every expressible pair of axis values (a
//! unit test enumerates the pairs, so an axis value added without a
//! covering row fails it). The wire protocol cannot spell per-request
//! cost or the scalar arm ([`expressible`]), so the four (transport,
//! constructors) pairs of the two served transports need four cost-on
//! vectorized rows; the (cost, vectorized) pairs of the other three cost
//! values can only be spelled direct and need six more; and cost-on ×
//! scalar needs one direct row — eleven. One plan always runs on one
//! thread, so there is no thread axis; the daemon's worker pool, which
//! every served row goes through, is concurrency between requests.
//!
//! **Corpora.** XMark as one document (Q1–Q20 × {order-indifferent,
//! baseline}); XMark split by subtree, read through `fn:collection()`
//! ([`XMARK_COLLECTION_QUERIES`] × the same two profiles); fuzz
//! single-document cells; and fuzz multi-document cells carrying the
//! grammar query plus the authored [`join_queries`]; and one authored
//! corpus for the `chain_join` that sits past the cost pass's exact-DP
//! bound. Fuzz cells draw from [`cell_rng`]`(seed, i, profile)`, so a
//! red cell reproduces under `fuzz-verify --seed`.
//!
//! **Served rows** load the cell's corpus into an in-process `xqd` (one
//! daemon per served transport, staged once per corpus; a
//! single document hot-reloads the default catalog, a multi-document
//! corpus loads into a named catalog), query with the wire spelling of the
//! cell's profile, and compare the one serialized string against a direct
//! reference run under the identical compiler mode. A shed answer
//! (`EXRQ0006/7/8`) is counted, not compared. Both served transports
//! speak through the `xqc` client: without retries on a plain daemon,
//! with them on a chaos daemon that arms every `net-*` failpoint.
//!
//! **A red cell** is minimised ([`crate::shrink()`], fuzz-stream cells) and
//! its culprit axis named by resetting the diverging row's fields to
//! their reference value one at a time; when the culprit is a
//! compile-side axis (`cost`, `failpoints`) the fired rewrite and cost
//! rules are bisected by [`crate::attribute`]. **Witness counters** in
//! the [`Report`] guard against vacuous passes.

use crate::attribute::{attribute, fired_rules, Attribution};
use crate::fuzz::{cell_rng, gen_corpus, gen_doc, gen_query, gen_query_corpus};
use crate::fuzz::{Corpus, FuzzProfile, NAMES};
use crate::shrink::{shrink, weight};
use exrquy::diag::Failpoints;
use exrquy::frontend::{parse_module, pretty, pretty_module, ElemContent, Expr};
use exrquy::opt::RuleSet;
use exrquy::{QueryOptions, QueryOutput, ResultItem, Session};
use exrquy_xmark::{generate, query, XmarkConfig};
use exrquy_xqc::{Client, ClientError, Config as XqcConfig, QueryOpts};
use exrquy_xqd::{spawn, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

// ---------------------------------------------------------------------
// The configuration space
// ---------------------------------------------------------------------

/// The cost-pass axis. `On` is the profile's planner as shipped (the
/// baseline compiler runs no optimizer pass at all, so the axis is
/// vacuous on baseline cells); `Perturb` additionally arms the named
/// `stats-perturb:<factor>` failpoint, which may change the chosen plan
/// but never a byte of output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    Off,
    On,
    Perturb(&'static str),
}

const INFLATE: Cost = Cost::Perturb("stats-perturb:1000");
const DEFLATE: Cost = Cost::Perturb("stats-perturb:0.001");

/// How the query reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process [`Session`].
    Direct,
    /// Over a socket to an in-process `xqd`; no retries.
    Served,
    /// Same, with every `net-*` fault armed on the daemon and the `xqc`
    /// client retrying on this side.
    ServedChaos,
}

/// How the query spells its nested direct constructors. The compiler
/// flattens a constructor nested *directly* in another into one twig for
/// every configuration, so no product option separates the two shapes;
/// the axis is metamorphic instead — `Unnested` runs the query rewritten
/// by [`unnest_constructors`], which means the same and flattens nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constructors {
    /// The query as written.
    Nested,
    /// Every nested `<b>…</b>` part wrapped as `{(<b>…</b>, ())}`: one
    /// ε per element, each level copying the one below.
    Unnested,
}

/// The failpoint spec a [`Transport::ServedChaos`] daemon arms: every
/// `net-*` fault class, on mutually prime cadences so they interleave.
const CHAOS_NET_SPEC: &str = "net-torn-write:5,net-trickle:9,net-disconnect:17,net-slow-read:13";

/// One point of the configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub cost: Cost,
    pub vectorized: bool,
    pub transport: Transport,
    pub constructors: Constructors,
    /// Extra failpoints armed on the run (planted faults); empty in
    /// every shipped row.
    pub failpoints: &'static str,
}

const fn row(
    cost: Cost,
    vectorized: bool,
    transport: Transport,
    constructors: Constructors,
) -> Config {
    Config {
        cost,
        vectorized,
        transport,
        constructors,
        failpoints: "",
    }
}

/// The point every row is compared against.
pub const REFERENCE: Config = row(Cost::Off, false, Transport::Direct, Constructors::Nested);

/// The covering table (see the module docs for why eleven). Each cost
/// value's two direct rows pair opposite `vectorized` and `constructors`
/// values, and the pairing flips between cost values, which puts every
/// (vectorized, constructors) pair in some row.
pub const TABLE: [Config; 11] = {
    use Constructors::{Nested, Unnested};
    use Cost::{Off, On};
    use Transport::{Direct, Served, ServedChaos};
    [
        row(Off, false, Direct, Unnested),
        row(Off, true, Direct, Nested),
        row(INFLATE, false, Direct, Nested),
        row(INFLATE, true, Direct, Unnested),
        row(DEFLATE, true, Direct, Nested),
        row(DEFLATE, false, Direct, Unnested),
        row(On, false, Direct, Unnested),
        row(On, true, Served, Nested),
        row(On, true, Served, Unnested),
        row(On, true, ServedChaos, Nested),
        row(On, true, ServedChaos, Unnested),
    ]
};

/// The axes by name, each with the assignment that copies that one field
/// from another config. Culprit naming resets a field to [`REFERENCE`]
/// with it; the pair-coverage test enumerates value pairs with it. A new
/// axis is one field, one line here and its covering rows.
pub type Axis = (&'static str, fn(&mut Config, &Config));
pub const AXES: [Axis; 5] = [
    ("cost", |c, from| c.cost = from.cost),
    ("vectorized", |c, from| c.vectorized = from.vectorized),
    ("transport", |c, from| c.transport = from.transport),
    ("constructors", |c, from| c.constructors = from.constructors),
    ("failpoints", |c, from| c.failpoints = from.failpoints),
];

/// Can this point be run at all? The wire protocol spells the ordering
/// mode and the catalog per request and `net-*` faults per daemon —
/// not the cost pass, the scalar arm or a compile-side failpoint.
pub fn expressible(c: &Config) -> bool {
    c.transport == Transport::Direct
        || (c.cost == Cost::On && c.vectorized && c.failpoints.is_empty())
}

impl Config {
    /// `base` (a profile's options) moved to this point.
    fn options(&self, base: &QueryOptions) -> QueryOptions {
        let mut o = base.clone().with_vectorized(self.vectorized);
        let mut spec = self.failpoints.to_string();
        match self.cost {
            Cost::Off => o.opt = o.opt.without_rule("cost-join-reorder"),
            Cost::On => {}
            Cost::Perturb(p) => spec = format!("{spec},{p}"),
        }
        o.with_failpoints(Failpoints::parse(&spec).expect("lattice failpoint spec parses"))
    }
}

/// `query` with no direct constructor nested directly in another: each
/// such part `<b>…</b>` of an enclosing constructor's content becomes
/// the enclosed expression `{(<b>…</b>, ())}`. Appending the empty
/// sequence changes no value, and a constructor inside a sequence is
/// its own twig root, so the rewritten query builds every level
/// bottom-up and copies it into the level above. `None` when there is
/// nothing to rewrite — or the query does not parse, which is left for
/// the run to reject.
pub fn unnest_constructors(query: &str) -> Option<String> {
    fn unnest(e: &mut Expr, wrapped: &mut usize) {
        e.for_each_child_mut(|c| unnest(c, wrapped));
        if let Expr::DirElement { content, .. } = e {
            for part in content {
                if let ElemContent::Expr(nested @ Expr::DirElement { .. }) = part {
                    let inner = std::mem::replace(nested, Expr::Empty);
                    *nested = Expr::Sequence(vec![inner, Expr::Empty]);
                    *wrapped += 1;
                }
            }
        }
    }
    let mut module = parse_module(query).ok()?;
    let mut wrapped = 0;
    for (_, e) in &mut module.variables {
        unnest(e, &mut wrapped);
    }
    unnest(&mut module.body, &mut wrapped);
    (wrapped > 0).then(|| pretty_module(&module))
}

/// The compiler profile of a cell — a property of the cell, not an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    /// [`QueryOptions::order_indifferent`] (= [`FuzzProfile::Unordered`]).
    Unordered,
    /// [`FuzzProfile::Ordered`]: the full optimizer under `ordered`.
    Ordered,
    /// [`QueryOptions::baseline`]: the order-aware compiler of §6.
    Baseline,
}

impl Profile {
    fn options(self) -> QueryOptions {
        match self {
            Profile::Unordered => FuzzProfile::Unordered.options(),
            Profile::Ordered => FuzzProfile::Ordered.options(),
            Profile::Baseline => QueryOptions::baseline(),
        }
    }

    /// The profile a served row actually runs: the wire spells the
    /// daemon's two ordering modes, so `Ordered` travels as `baseline`.
    fn wire(self) -> Profile {
        match self {
            Profile::Ordered => Profile::Baseline,
            p => p,
        }
    }
}

// ---------------------------------------------------------------------
// The comparator and the report
// ---------------------------------------------------------------------

/// How one run ended: the rendered items in order, or the error code.
pub type Run = Result<Vec<String>, String>;

/// Verdict of one row against the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Same,
    /// Both failed with the same error code.
    SameError,
    Diverged(String),
}

/// The byte-identity contract, stated once: same items in the same
/// order, or the same error code.
pub fn compare(reference: &Run, got: &Run) -> Outcome {
    Outcome::Diverged(match (reference, got) {
        (Ok(w), Ok(g)) if w == g => return Outcome::Same,
        (Err(w), Err(g)) if w == g => return Outcome::SameError,
        (Ok(w), Ok(g)) => format!(
            "serialization diverged ({} vs {} items{})",
            w.len(),
            g.len(),
            w.iter()
                .zip(g)
                .position(|(a, b)| a != b)
                .map(|i| format!(", first at index {i}"))
                .unwrap_or_default()
        ),
        (Err(w), Err(g)) => format!("error codes diverged (reference {w} vs {g})"),
        (Ok(_), Err(g)) => format!("errored where the reference succeeded: {g}"),
        (Err(w), Ok(_)) => format!("succeeded where the reference errored: {w}"),
    })
}

/// One red (cell, row), minimised and attributed as far as it goes.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub cell: String,
    pub row: Config,
    pub message: String,
    pub query: String,
    /// The axis whose reset to its reference value alone cures the row;
    /// `None` when no single axis does.
    pub axis: Option<&'static str>,
    /// Fuzz-stream cells: the minimised still-diverging query with the
    /// syntactic weight before and after.
    pub minimized: Option<(String, usize, usize)>,
    /// Compile-side culprits (`cost`, `failpoints`): the rule to blame.
    pub attribution: Option<Attribution>,
}

/// Outcome of a lattice run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Cells (corpus, query, profile) run; each is compared under every
    /// expressible row.
    pub cells: usize,
    /// Cells whose reference run errored (every row must then fail with
    /// the same code).
    pub error_cells: usize,
    /// (cell, row) pairs skipped because the row is not [`expressible`].
    pub inexpressible: usize,
    /// Evidence the run was not vacuous: `reordered_plans` (cells whose
    /// shipped plan had a join cluster rebuilt — only where the
    /// order-indifference proof holds, so each compares that proof byte
    /// for byte),
    /// `fused_chains` (in the cells' shipped plans), `perturbed_cells`
    /// ((cell, row) runs under a `stats-perturb` arm), `join_queries`
    /// (authored join cells), `served_cells`
    /// ((cell, row) pairs compared over the wire), `unnested_cells`
    /// ((cell, row) pairs whose query had nested constructors to
    /// unnest), `chaos_retries` (retries the chaos clients spent) and
    /// `shed_cells` (requests a daemon shed).
    pub witnesses: BTreeMap<&'static str, u64>,
    pub divergences: Vec<Divergence>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }

    fn bump(&mut self, witness: &'static str, n: u64) {
        *self.witnesses.entry(witness).or_default() += n;
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "configuration lattice: {} cells ({} error), {} inexpressible, {} divergence(s)\n ",
            self.cells,
            self.error_cells,
            self.inexpressible,
            self.divergences.len()
        )?;
        for (name, n) in &self.witnesses {
            write!(f, " {name}={n}")?;
        }
        for d in &self.divergences {
            write!(
                f,
                "\n  {} under {:?}: {}\n    axis:      {}\n    query:     {}",
                d.cell,
                d.row,
                d.message,
                d.axis.unwrap_or("no single axis"),
                d.query
            )?;
            if let Some((text, before, after)) = &d.minimized {
                write!(f, "\n    minimized: {text} (weight {before} -> {after})")?;
            }
            if let Some(a) = &d.attribution {
                write!(f, "\n    culprit:   {a}")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Corpora
// ---------------------------------------------------------------------

/// The top-level sections of an XMark `site` document, in document order.
const XMARK_SECTIONS: &[&str] = &[
    "regions",
    "categories",
    "catgraph",
    "people",
    "open_auctions",
    "closed_auctions",
];

/// Split one XMark document by subtree: each top-level section of
/// `<site>` becomes its own `<site>`-rooted document, in section order —
/// so `fn:collection()//x` over the split corpus visits the same
/// elements in the same order as `doc(...)//x` over the original.
pub fn split_xmark(xml: &str) -> Vec<(String, String)> {
    let mut docs = Vec::with_capacity(XMARK_SECTIONS.len());
    for section in XMARK_SECTIONS {
        let open = format!("<{section}>");
        let close = format!("</{section}>");
        let Some(start) = xml.find(&open) else {
            continue;
        };
        let end = xml[start..]
            .find(&close)
            .map(|i| start + i + close.len())
            .unwrap_or_else(|| panic!("unterminated <{section}> in generated XMark"));
        docs.push((
            format!("{section}.xml"),
            format!("<site>{}</site>", &xml[start..end]),
        ));
    }
    assert_eq!(
        docs.len(),
        XMARK_SECTIONS.len(),
        "XMark generator changed its section layout"
    );
    docs
}

/// The XMark collection matrix: the benchmark's access patterns —
/// attribute lookups, descendant counting, value joins, aggregates,
/// constructors, sorting — rewritten against `fn:collection()` so every
/// query scans the whole split corpus.
pub const XMARK_COLLECTION_QUERIES: &[&str] = &[
    // Exact-match lookup by attribute value (Q1-shaped).
    r#"for $b in fn:collection()//person[@id = "person0"] return $b/name/text()"#,
    // Descendant counting across the corpus (Q6-shaped).
    r#"for $s in fn:collection()/site return fn:count($s//item)"#,
    // Multiple descendant counts summed across the corpus (Q7-shaped).
    r#"fn:count(fn:collection()//description) + fn:count(fn:collection()//annotation)
       + fn:count(fn:collection()//emailaddress)"#,
    // Cross-document value join: people and closed auctions live in
    // *different* documents of the split corpus (Q8-shaped).
    r#"for $p in fn:collection()//people/person
       let $a := for $t in fn:collection()//closed_auctions/closed_auction
                 where $t/buyer/@person = $p/@id
                 return $t
       return <item person="{ $p/name/text() }">{ fn:count($a) }</item>"#,
    // Aggregate over a filtered stream (Q5-shaped).
    r#"fn:count(for $i in fn:collection()//closed_auction
                where $i/price/text() >= 40
                return $i/price)"#,
    // Existence scan with constructor output.
    r#"for $p in fn:collection()//person
       where fn:exists($p/homepage)
       return <has-page>{ $p/name/text() }</has-page>"#,
    // Ordered whole-corpus scan: item names in collection order — the
    // rawest form of the byte-identity promise.
    r#"for $i in fn:collection()//item return $i/name/text()"#,
    // Sorting across document boundaries (Q20-flavoured ordering).
    r#"for $p in fn:collection()//person
       order by $p/name/text() descending
       return $p/name/text()"#,
    // Positional access within a document-crossing stream.
    r#"for $a in fn:collection()//open_auction
       return <first>{ $a/bidder[1]/increase/text() }</first>"#,
    // Quantifier over the whole corpus.
    r#"fn:count(fn:collection()//open_auction[some $b in bidder
                satisfies $b/increase/text() >= 20])"#,
];

/// Authored multi-document join queries over `urls`: three-relation
/// bundles with equality/inequality predicates — exactly the dissolvable
/// shapes the enumerator reorders (band joins stay opaque by design, so
/// the grammar stream covers those). Each shape comes twice: returning
/// constructed elements, whose order is observed, so the cost pass keeps
/// the canonical tree; and under an order-indifferent consumer, where a
/// cheaper order may be grafted — a top-level `fn:count`, a
/// per-iteration `fn:count`, `fn:max` over ids or `some … satisfies`,
/// rotating with `i`. Element names rotate with `i` too, so the stream
/// hits populated and empty relations alike.
pub fn join_queries(urls: &[String], i: usize) -> Vec<String> {
    let [n0, n1, n2] = [0, 1, 2].map(|k| NAMES[(i + k) % NAMES.len()]);
    let [u0, u1, u2] = [0, 1, 2].map(|k| &urls[k % urls.len()]);
    // (outer binding, inner bindings, predicate, constructed return)
    let shapes = [
        // Three documents, two inequality bundles: every pair of rows
        // with distinct ids matches, so the result is large and the
        // intermediate orders differ per join order.
        (
            format!(r#"$x in doc("{u0}")//{n0}"#),
            format!(r#"$y in doc("{u1}")//{n1}, $z in doc("{u2}")//{n2}"#),
            "$x/@id != $y/@id and $y/@id != $z/@id",
            "<j>{string($x/@id)}.{string($y/@id)}.{string($z/@id)}</j>",
        ),
        // Whole-corpus self equi-join (every node matches itself) plus an
        // inequality leg — an Eq bundle and a Ne bundle in one cluster,
        // scanned through `fn:collection()`.
        (
            format!("$x in fn:collection()//{n0}"),
            format!("$y in fn:collection()//{n0}, $z in fn:collection()//{n1}"),
            "$x/@id = $y/@id and $y/@id != $z/@id",
            "<j>{string($x/@id)}:{string($z/@id)}</j>",
        ),
    ];
    let mut queries = Vec::with_capacity(2 * shapes.len());
    for (outer, inner, pred, construct) in shapes {
        let fors = format!("{outer}, {inner}");
        queries.push(format!("for {fors} where {pred} return {construct}"));
        queries.push(match i % 4 {
            0 => format!("fn:count(for {fors} where {pred} return $z)"),
            1 => format!("for {outer} return fn:count(for {inner} where {pred} return $z)"),
            2 => format!("fn:max(for {fors} where {pred} return $x/@id)"),
            _ => format!("some {fors} satisfies {pred}"),
        });
    }
    queries
}

/// The two authored documents [`chain_join`] runs over: small enough
/// that the nine-way cross product its uncosted reference materializes
/// stays at a few hundred rows.
const CHAIN_CORPUS: [(&str, &str); 2] = [
    ("c0.xml", r#"<r id="1"><a id="2"/><b id="3"/></r>"#),
    ("c1.xml", r#"<r id="4"><a id="5"/></r>"#),
];

/// The count of a `relations`-way join in one `for` clause: the first
/// and last relation (every `a` of the corpus) tied by an equality, the
/// document roots between them riding along as cross products. The
/// count cannot observe the join's order, so the cost pass may rebuild
/// it. Loop lifting ties the bindings and their map relations into one
/// cluster of `2 · (relations − 1)` leaves, so nine relations sit past
/// the cost pass's exact-DP bound (8 leaves) and keep their canonical
/// order, while five are re-enumerated.
fn chain_join(relations: usize) -> String {
    let bindings: Vec<String> = (1..=relations)
        .map(|k| match k {
            _ if k == 1 || k == relations => format!("$x{k} in fn:collection()//a"),
            _ => format!("$x{k} in fn:collection()/r"),
        })
        .collect();
    format!(
        "fn:count(for {} where $x1/@id = $x{relations}/@id return $x2)",
        bindings.join(", ")
    )
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// What to run: the XMark corpora at `scale` (whole-document Q`n` and
/// collection-matrix query `n` for every 1-based `n` in `queries`),
/// `fuzz_iters` iterations of both fuzz streams under both profiles, all
/// from `seed`, each cell under every row of `rows`.
#[derive(Debug, Clone)]
pub struct Lattice {
    pub seed: u64,
    pub scale: f64,
    pub fuzz_iters: usize,
    pub queries: Vec<usize>,
    pub rows: Vec<Config>,
}

impl Default for Lattice {
    /// The tier-1 size: every axis pair on a handful of cells of every
    /// corpus. `crates/verify/tests/lattice.rs` runs the full breadth.
    fn default() -> Self {
        Lattice {
            seed: 42,
            scale: 0.001,
            fuzz_iters: 1,
            // Q8 joins; Q10 nests constructors (the `constructors` axis).
            queries: vec![8, 10],
            rows: TABLE.to_vec(),
        }
    }
}

/// Probe budget of the minimiser per red cell.
const MAX_SHRINK_PROBES: usize = 400;

struct Cell {
    label: String,
    query: String,
    profile: Profile,
    /// Fuzz-stream cells are minimised on divergence: their text
    /// round-trips through the pretty-printer and has no prolog.
    fuzz: bool,
}

/// One corpus and the session it is loaded into.
struct Env<'c> {
    /// Names the corpus (the served rows' catalog name).
    key: &'c str,
    docs: &'c [(String, String)],
    session: Session,
}

impl<'c> Env<'c> {
    /// The corpus, one document or many, parsed in one catalog swap — the
    /// one load path there is.
    fn load(key: &'c str, docs: &'c [(String, String)]) -> Self {
        let mut session = Session::new();
        session
            .load_corpus(docs.iter().map(|(u, x)| (u.as_str(), x.as_str())))
            .expect("lattice corpus documents are well-formed");
        Env { key, docs, session }
    }
}

/// A reference run in the two renderings rows are compared in: item by
/// item (direct rows) and as the one serialized string the wire carries.
struct Reference {
    items: Run,
    wire: Run,
}

fn rendered(items: &[ResultItem]) -> Vec<String> {
    items.iter().map(ResultItem::render).collect()
}

/// One in-process run, failures reduced to their error code.
fn direct(session: &Session, query: &str, opts: &QueryOptions) -> Result<QueryOutput, String> {
    session
        .query_with(query, opts)
        .map_err(|e| e.code().as_str().to_string())
}

/// Run `query` at the reference point under the compiler mode `row`
/// runs a `profile` cell in: the profile itself, or its wire spelling.
fn reference(env: &Env, row: &Config, profile: Profile, query: &str) -> Reference {
    let profile = match row.transport {
        Transport::Direct => profile,
        _ => profile.wire(),
    };
    let opts = REFERENCE.options(&profile.options());
    let out = direct(&env.session, query, &opts);
    Reference {
        items: out
            .as_ref()
            .map(|o| rendered(&o.items))
            .map_err(String::clone),
        wire: out.map(|o| vec![o.to_xml()]),
    }
}

impl Reference {
    fn expected_by(&self, row: &Config) -> &Run {
        match row.transport {
            Transport::Direct => &self.items,
            _ => &self.wire,
        }
    }
}

struct Runner<'a> {
    cfg: &'a Lattice,
    report: Report,
    /// One daemon per served transport (keyed by chaos), spawned on
    /// first use.
    daemons: BTreeMap<bool, Daemon>,
}

/// Run the lattice.
pub fn run_lattice(cfg: &Lattice) -> Report {
    let mut run = Runner {
        cfg,
        report: Report::default(),
        daemons: BTreeMap::new(),
    };

    if !cfg.queries.is_empty() {
        let xml = generate(&XmarkConfig {
            scale: cfg.scale,
            seed: cfg.seed,
        });
        let split = split_xmark(&xml);
        let (mut whole, mut matrix) = (Vec::new(), Vec::new());
        for &n in &cfg.queries {
            for (name, profile) in [
                ("unordered", Profile::Unordered),
                ("baseline", Profile::Baseline),
            ] {
                let cell = |label: String, q: &str| Cell {
                    label,
                    query: q.to_string(),
                    profile,
                    fuzz: false,
                };
                whole.push(cell(format!("xmark Q{n} [{name}]"), query(n)));
                if let Some(q) = XMARK_COLLECTION_QUERIES.get(n - 1) {
                    matrix.push(cell(format!("xmark-collection C{n} [{name}]"), q));
                }
            }
        }
        run.corpus("xmark", &[("auction.xml".to_string(), xml)], &whole);
        run.corpus("xmark-split", &split, &matrix);
    }

    for i in 0..cfg.fuzz_iters {
        for (fp, profile) in [
            (FuzzProfile::Ordered, Profile::Ordered),
            (FuzzProfile::Unordered, Profile::Unordered),
        ] {
            let cell = |label: String, query: String| Cell {
                label,
                query,
                profile,
                fuzz: true,
            };
            // Single document: the stream `fuzz-verify` draws.
            let mut rng = cell_rng(cfg.seed, i, fp);
            let doc = Corpus::single(gen_doc(&mut rng));
            let q = pretty(&gen_query(&mut rng, fp));
            let key = format!("fuzz {i} [{fp}]");
            run.corpus(&key, &doc.docs, &[cell(key.clone(), q)]);

            // Multi-document: the grammar query plus the authored joins.
            let mut rng = cell_rng(cfg.seed, i, fp);
            let corpus = gen_corpus(&mut rng);
            let urls = corpus.urls();
            let key = format!("fuzz-multi {i} [{fp}]");
            let q = pretty(&gen_query_corpus(&mut rng, fp, &urls));
            let mut cells = vec![cell(key.clone(), q)];
            for (j, jq) in join_queries(&urls, i).into_iter().enumerate() {
                cells.push(cell(format!("join {i}.{j} [{fp}]"), jq));
            }
            run.report.bump("join_queries", cells.len() as u64 - 1);
            run.corpus(&key, &corpus.docs, &cells);
        }
    }
    if cfg.fuzz_iters > 0 {
        // The join stream's far side of the exact-DP bound (under the
        // ordered profile: sequence equality is the stricter).
        let docs = CHAIN_CORPUS.map(|(u, x)| (u.to_string(), x.to_string()));
        let cell = Cell {
            label: "chain join [ordered]".to_string(),
            query: chain_join(9),
            profile: Profile::Ordered,
            fuzz: true,
        };
        run.report.bump("join_queries", 1);
        run.corpus("chain", &docs, &[cell]);
    }

    // Every run ends with drained daemons.
    for (chaos, d) in std::mem::take(&mut run.daemons) {
        if chaos {
            run.report.bump("chaos_retries", d.client.stats().retries);
        }
        drop(d.client);
        let stats = d.server.shutdown();
        assert_eq!(stats.queue_depth, 0, "lattice: drain left work queued");
    }
    run.report
}

impl Runner<'_> {
    /// Run every cell of one corpus under the reference and every row.
    fn corpus(&mut self, key: &str, docs: &[(String, String)], cells: &[Cell]) {
        let cfg = self.cfg;
        let env = Env::load(key, docs);
        for cell in cells {
            self.report.cells += 1;
            // The plan as shipped: did the enumerator act, did chains fuse?
            let shipped = cell.profile.options();
            if let Ok(plan) = env.session.prepare(&cell.query, &shipped) {
                let any = |n: usize| u64::from(n > 0);
                self.report
                    .bump("reordered_plans", any(plan.cost_report.reordered));
                self.report
                    .bump("fused_chains", plan.phys.fused_chains as u64);
            }
            let nests = unnest_constructors(&cell.query).is_some();
            // One memoised reference per compiler mode the rows need.
            let mut refs: [Option<Reference>; 2] = [None, None];
            for row in &cfg.rows {
                if !expressible(row) {
                    self.report.inexpressible += 1;
                    continue;
                }
                let served = row.transport != Transport::Direct;
                let wired = served && cell.profile.wire() != cell.profile;
                let want = refs[usize::from(wired)]
                    .get_or_insert_with(|| reference(&env, row, cell.profile, &cell.query))
                    .expected_by(row);
                let none = RuleSet::empty();
                let Some(got) = self.execute(&env, row, cell.profile, &cell.query, none) else {
                    self.report.bump("shed_cells", 1);
                    continue;
                };
                self.report.bump("served_cells", u64::from(served));
                let perturbed = matches!(row.cost, Cost::Perturb(_));
                self.report.bump("perturbed_cells", u64::from(perturbed));
                let unnested = nests && row.constructors == Constructors::Unnested;
                self.report.bump("unnested_cells", u64::from(unnested));
                if let Outcome::Diverged(message) = compare(want, &got) {
                    self.diverged(&env, cell, row, message);
                }
            }
            if refs.iter().flatten().any(|r| r.items.is_err()) {
                self.report.error_cells += 1;
            }
        }
    }

    /// One run of `query` at the point `row` (with `disabled` rules off —
    /// attribution's probe, direct rows only). `None` when a daemon shed
    /// the request.
    fn execute(
        &mut self,
        env: &Env,
        row: &Config,
        profile: Profile,
        query: &str,
        disabled: RuleSet,
    ) -> Option<Run> {
        let unnested = match row.constructors {
            Constructors::Nested => None,
            Constructors::Unnested => unnest_constructors(query),
        };
        let query = unnested.as_deref().unwrap_or(query);
        if row.transport == Transport::Direct {
            let mut opts = row.options(&profile.options());
            opts.opt.disabled_rules = opts.opt.disabled_rules.union(disabled);
            return Some(direct(&env.session, query, &opts).map(|o| rendered(&o.items)));
        }
        let (chaos, seed) = (row.transport == Transport::ServedChaos, self.cfg.seed);
        let daemon = self
            .daemons
            .entry(chaos)
            .or_insert_with(|| Daemon::spawn(chaos, seed));
        // A single document hot-reloads the default catalog; a corpus
        // stages a named one, so an earlier corpus's documents cannot
        // leak into `fn:collection()`.
        let catalog = (env.docs.len() > 1).then_some(env.key);
        if daemon.loaded != env.key {
            for (url, xml) in env.docs {
                let staged = daemon.client.load_into(url, xml, catalog);
                if let Err(e) = staged {
                    // The direct arm loaded this exact document.
                    return Some(Err(format!("load of {url} failed: {e}")));
                }
            }
            daemon.loaded = env.key.to_string();
        }
        let opts = QueryOpts {
            baseline: profile.wire() == Profile::Baseline,
            catalog: catalog.map(str::to_string),
            ..QueryOpts::default()
        };
        let run = match daemon.client.query_with(query, &opts) {
            Ok(result) => Ok(vec![result]),
            // Shed (overload/deadline/drain): legal, carries no signal.
            Err(ClientError::Server { code, .. })
                if matches!(code.as_str(), "EXRQ0006" | "EXRQ0007" | "EXRQ0008") =>
            {
                return None
            }
            Err(ClientError::Server { code, .. }) => Err(code.as_str().to_string()),
            // A transport failure the client did not recover — none is
            // injected on a plain daemon, and chaos is bounded and
            // deterministic — is a harness or client bug.
            Err(e) => panic!("lattice served row: unrecovered failure: {e}"),
        };
        Some(run)
    }

    /// Is `row` red on `query`? (A fresh reference per call: the
    /// minimiser varies the query, attribution the rules.)
    fn red(
        &mut self,
        env: &Env,
        row: &Config,
        profile: Profile,
        query: &str,
        disabled: RuleSet,
    ) -> bool {
        let want = reference(env, row, profile, query);
        self.execute(env, row, profile, query, disabled)
            .is_some_and(|got| matches!(compare(want.expected_by(row), &got), Outcome::Diverged(_)))
    }

    /// Record a red (cell, row): name the axis, minimise, attribute. A
    /// covering row differs from the reference in several axes at once,
    /// so without this step a red cell does not say where to look.
    fn diverged(&mut self, env: &Env, cell: &Cell, row: &Config, message: String) {
        let (profile, none) = (cell.profile, RuleSet::empty());
        let axis = AXES
            .iter()
            .find(|(_, copy)| {
                let mut probe = *row;
                copy(&mut probe, &REFERENCE);
                probe != *row
                    && expressible(&probe)
                    && !self.red(env, &probe, profile, &cell.query, none)
            })
            .map(|(name, _)| *name);
        let minimized = cell
            .fuzz
            .then(|| parse_module(&cell.query).ok())
            .flatten()
            .map(|m| {
                let out = shrink(&m.body, MAX_SHRINK_PROBES, |text| {
                    self.red(env, row, profile, text, none)
                });
                (out.text, weight(&m.body), out.weight)
            });
        let text = minimized.as_ref().map_or(&cell.query, |(text, ..)| text);
        let attribution = matches!(axis, Some("cost" | "failpoints")).then(|| {
            let opts = row.options(&profile.options());
            let fired = env
                .session
                .prepare(text, &opts)
                .map(|plan| fired_rules(&plan))
                .unwrap_or_default();
            attribute(fired, |off| !self.red(env, row, profile, text, off))
        });
        self.report.divergences.push(Divergence {
            cell: cell.label.clone(),
            row: *row,
            message,
            query: cell.query.clone(),
            axis,
            minimized,
            attribution,
        });
    }
}

/// An in-process `xqd` and the client a served row reaches it through:
/// the `xqc` client either way — without retries on a plain daemon (any
/// transport hiccup there is a bug), with them when chaos is armed
/// (transport faults are the point; only an unrecovered one panics).
struct Daemon {
    server: ServerHandle,
    client: Client,
    /// The key of the corpus staged last.
    loaded: String,
}

impl Daemon {
    fn spawn(chaos: bool, seed: u64) -> Daemon {
        let spec = if chaos { CHAOS_NET_SPEC } else { "" };
        let server = spawn(
            ServerConfig {
                workers: 2,
                queue_capacity: 16,
                failpoints: Failpoints::parse(spec).expect("chaos spec parses"),
                ..ServerConfig::default()
            },
            Session::new(),
        )
        .expect("spawn in-process daemon for the lattice");
        let client = Client::connect(XqcConfig {
            max_retries: if chaos { 8 } else { 0 },
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            read_timeout: Duration::from_secs(120),
            jitter_seed: seed,
            ..XqcConfig::new(server.addr().to_string())
        });
        Daemon {
            server,
            client,
            loaded: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(items: &[&str]) -> Run {
        Ok(items.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn compare_pins_every_verdict_and_its_message() {
        let diverged = |a: &Run, b: &Run| match compare(a, b) {
            Outcome::Diverged(m) => m,
            other => panic!("expected a divergence, got {other:?}"),
        };
        let (abc, err) = (run(&["a", "b", "c"]), Err("XPTY0004".to_string()));
        assert_eq!(compare(&abc, &abc), Outcome::Same);
        assert_eq!(compare(&err, &err), Outcome::SameError);
        assert_eq!(
            diverged(&abc, &run(&["a", "x", "c"])),
            "serialization diverged (3 vs 3 items, first at index 1)"
        );
        assert_eq!(
            diverged(&abc, &run(&["a", "b"])),
            "serialization diverged (3 vs 2 items)"
        );
        assert_eq!(
            diverged(&err, &Err("FORG0001".to_string())),
            "error codes diverged (reference XPTY0004 vs FORG0001)"
        );
        assert_eq!(
            diverged(&abc, &err),
            "errored where the reference succeeded: XPTY0004"
        );
        assert_eq!(
            diverged(&err, &abc),
            "succeeded where the reference errored: XPTY0004"
        );
    }

    /// The first pair of axis values — every value a shipped row or the
    /// reference takes — that some expressible point contains but no row
    /// of `table` does.
    fn uncovered_pair(table: &[Config]) -> Option<String> {
        let mut points = TABLE.to_vec();
        points.push(REFERENCE);
        for (i, (ni, copy_i)) in AXES.iter().enumerate() {
            for (nj, copy_j) in &AXES[i + 1..] {
                for (a, b) in points
                    .iter()
                    .flat_map(|a| points.iter().map(move |b| (a, b)))
                {
                    let with_pair = |mut c: Config| {
                        copy_i(&mut c, a);
                        copy_j(&mut c, b);
                        c
                    };
                    // Spellable at all? Try the pair on every point.
                    if points.iter().any(|c| expressible(&with_pair(*c)))
                        && !table.iter().any(|r| with_pair(*r) == *r)
                    {
                        return Some(format!("{ni} of {a:?} x {nj} of {b:?}"));
                    }
                }
            }
        }
        None
    }

    #[test]
    fn table_covers_every_pair_of_axis_values_and_no_row_is_spare() {
        assert!(TABLE.iter().all(expressible) && !TABLE.contains(&REFERENCE));
        assert_eq!(uncovered_pair(&TABLE), None);
        // Eleven is the floor, so every row carries a pair of its own.
        for skip in 0..TABLE.len() {
            let mut rest = TABLE.to_vec();
            let dropped = rest.remove(skip);
            assert!(
                uncovered_pair(&rest).is_some(),
                "row {skip} {dropped:?} covers no pair of its own"
            );
        }
    }

    /// The rewrite behind the `constructors` axis wraps exactly the
    /// directly nested constructors, leaves a query without any alone,
    /// and really does defeat the flattening: one `elem` per element
    /// where the query as written compiles to one per twig — with the
    /// same answer.
    #[test]
    fn unnesting_keeps_the_answer_and_flattens_nothing() {
        use exrquy::algebra::PlanStats;
        let q = r#"for $i in (1, 2) return
                   <a k="{ $i }">t<b><c>{ $i }</c>{ $i, $i }</b>{ <d/> }u{ (<e/>, $i) }</a>"#;
        let unnested = unnest_constructors(q).expect("nested constructors to unnest");
        assert_eq!(
            unnested,
            r#"(for $i in (1, 2) return <a k="{$i}">t{(<b>{(<c>{$i}</c>, ())}{($i, $i)}</b>, ())}{(<d/>, ())}u{(<e/>, $i)}</a>)"#
        );
        assert_eq!(unnest_constructors(&unnested), None);
        assert_eq!(unnest_constructors("<a>{ 1 }</a>"), None);
        assert_eq!(unnest_constructors("<a>{ 1 "), None);

        let s = Session::new();
        let elems = |text: &str| {
            let plan = s.prepare(text, &QueryOptions::baseline()).unwrap();
            PlanStats::of(&plan.dag, plan.root).count("elem")
        };
        assert_eq!((elems(q), elems(&unnested)), (2, 5));
        let run = |text: &str| rendered(&s.query(text).unwrap().items);
        assert_eq!(run(q), run(&unnested));
        assert_eq!(run(q)[0], r#"<a k="1">t<b><c>1</c>1 1</b><d/>u<e/>1</a>"#);
    }

    #[test]
    fn xmark_split_is_site_rooted_and_loses_nothing() {
        let xml = generate(&XmarkConfig {
            scale: 0.001,
            seed: 42,
        });
        let docs = split_xmark(&xml);
        for (url, doc) in &docs {
            assert!(doc.starts_with("<site>"), "{url} not site-rooted");
            assert!(doc.ends_with("</site>"), "{url} not site-terminated");
        }
        // Nothing element-like lost: the split covers every item/person.
        let count = |hay: &str, needle: &str| hay.matches(needle).count();
        let items: usize = docs.iter().map(|(_, d)| count(d, "<item ")).sum();
        assert_eq!(items, count(&xml, "<item "));
        let persons: usize = docs.iter().map(|(_, d)| count(d, "<person ")).sum();
        assert_eq!(persons, count(&xml, "<person "));
    }

    #[test]
    fn xmark_matrix_queries_succeed_on_the_reference() {
        // Guards against dialect drift silently degrading the matrix to
        // error-vs-error cells: every matrix query must actually run.
        let xml = generate(&XmarkConfig {
            scale: 0.001,
            seed: 42,
        });
        let mut session = Session::new();
        let split = split_xmark(&xml);
        session
            .load_corpus(split.iter().map(|(u, x)| (u.as_str(), x.as_str())))
            .unwrap();
        for q in XMARK_COLLECTION_QUERIES {
            session
                .query_with(q, &QueryOptions::order_indifferent())
                .unwrap_or_else(|e| panic!("matrix query failed: {q}: {}", e.render_line()));
        }
    }

    #[test]
    fn join_stream_shapes_compile_and_rebuild_only_where_unobserved() {
        // Constructed returns are observed, so the cost pass keeps their
        // canonical tree; the top-level count and the max over ids cannot
        // observe it, and their cheaper order is grafted.
        let corpus = gen_corpus(&mut cell_rng(0, 0, FuzzProfile::Unordered));
        let mut s = Session::new();
        s.load_corpus(corpus.docs.iter().map(|(u, x)| (u.as_str(), x.as_str())))
            .unwrap();
        let opts = FuzzProfile::Unordered.options();
        for i in 0..4 {
            for (j, q) in join_queries(&corpus.urls(), i).iter().enumerate() {
                let plan = s.prepare(q, &opts).unwrap_or_else(|e| panic!("{q}: {e}"));
                let constructed = j % 2 == 0;
                if constructed || i % 2 == 0 {
                    assert_eq!(plan.cost_report.reordered > 0, !constructed, "{q}");
                }
            }
        }
    }

    #[test]
    fn chain_join_sits_past_the_dp_bound() {
        // Five relations lift into one cluster of 8 leaves, which the
        // exact DP re-enumerates and the count lets the pass rebuild;
        // nine lift into 16, past `DP_LEAVES`, and keep their canonical
        // order. (The key-only map joins every FLWOR used to carry are
        // gone before the cost pass looks.)
        let mut s = Session::new();
        s.load_corpus(CHAIN_CORPUS).unwrap();
        let reordered = |relations| {
            let opts = QueryOptions::order_indifferent();
            let plan = s.prepare(&chain_join(relations), &opts).unwrap();
            plan.cost_report.reordered
        };
        assert_eq!((reordered(5), reordered(9)), (1, 0));
    }
}
