//! Grammar-driven XQuery fuzzing: random well-formed queries over random
//! documents, every one driven through the three-way differential oracle
//! ([`Session::verify`](exrquy::Session::verify)).
//!
//! The generator is seeded and self-contained (the in-repo
//! [`SmallRng`]), so a fuzz run is a pure function of its
//! [`FuzzConfig`]: same seed → same document stream → same query stream
//! → same verdicts, on every machine. Each iteration draws one document
//! and one query per [`FuzzProfile`]:
//!
//! * **ordered** — ordering mode `ordered` with exploitation and the full
//!   optimizer on; the oracle compares under *sequence* equivalence, so
//!   every rewrite must preserve exact output order. Positional
//!   predicates and `at $p` variables are fair game here.
//! * **unordered** — the paper's §5 order-indifferent configuration; the
//!   oracle compares under *bag* equivalence. Order-observing constructs
//!   (positional predicates, `at` variables) are excluded from generated
//!   queries because the mode legitimately permutes results — they would
//!   be false positives, not bugs.
//!
//! Queries are generated to be *well-defined by construction* (no
//! division by zero, aggregates only over numeric attributes, `order by`
//! keys made total by unique `id` attributes), so an arm error means an
//! engine limitation and the iteration is counted as skipped rather than
//! as a divergence.
//!
//! On an `EXRQ0004` divergence the driver minimizes the query with
//! [`crate::shrink()`] and names the culprit rewrite with
//! [`crate::attribute`]; both land in the [`Divergence`] record.

use crate::attribute::{attribute_divergence, Attribution};
use crate::shrink::{shrink, weight};
use exrquy::diag::Failpoints;
use exrquy::frontend::{pretty, BinOp, Clause, Expr, NodeTestAst, OrderSpec, OrderingMode, Quant};
use exrquy::xml::rng::SmallRng;
use exrquy::xml::Axis;
use exrquy::{Error, QueryOptions, Session};
use std::fmt;

/// The URL every generated query reads its document from.
pub const FUZZ_DOC_URL: &str = "f.xml";

/// A fuzz corpus: the documents a generated query may read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    /// `(url, xml)` in load (= collection) order.
    pub docs: Vec<(String, String)>,
}

impl Corpus {
    /// The document URLs, in load order.
    pub fn urls(&self) -> Vec<String> {
        self.docs.iter().map(|(u, _)| u.clone()).collect()
    }

    /// The single-document corpus: `xml` under [`FUZZ_DOC_URL`].
    pub fn single(xml: impl Into<String>) -> Corpus {
        Corpus {
            docs: vec![(FUZZ_DOC_URL.to_string(), xml.into())],
        }
    }
}

/// Load a corpus into `session` in one swap. Shared by the oracle and
/// the attribution replayer so every probe sees the same catalog the
/// fuzzer generated.
pub(crate) fn load_corpus(session: &mut Session, corpus: &Corpus) -> Result<(), Error> {
    session.load_corpus(corpus.docs.iter().map(|(u, x)| (u.as_str(), x.as_str())))
}

/// Element-name pool for generated documents and node tests.
pub(crate) const NAMES: &[&str] = &["a", "b", "c", "d"];

/// Which compiler configuration (and hence which result equivalence) a
/// generated query is verified under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzProfile {
    /// `ordered` mode, exploitation + full optimizer, sequence equivalence.
    Ordered,
    /// `unordered` mode (the paper's §5 configuration), bag equivalence.
    Unordered,
}

impl FuzzProfile {
    pub fn as_str(self) -> &'static str {
        match self {
            FuzzProfile::Ordered => "ordered",
            FuzzProfile::Unordered => "unordered",
        }
    }

    /// The [`QueryOptions`] this profile verifies under.
    pub fn options(self) -> QueryOptions {
        match self {
            FuzzProfile::Ordered => {
                let mut o = QueryOptions::order_indifferent();
                o.ordering = Some(OrderingMode::Ordered);
                o
            }
            FuzzProfile::Unordered => QueryOptions::order_indifferent(),
        }
    }

    /// Seed-stream discriminator so the two profiles draw independent
    /// queries from one base seed.
    fn salt(self) -> u64 {
        match self {
            FuzzProfile::Ordered => 1,
            FuzzProfile::Unordered => 2,
        }
    }
}

impl fmt::Display for FuzzProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; iteration `i` under profile `p` derives its own
    /// deterministic sub-seed, so runs are reproducible per cell.
    pub seed: u64,
    /// Iterations (each runs every profile in `profiles`).
    pub iters: usize,
    pub profiles: Vec<FuzzProfile>,
    /// Failpoints planted into every oracle run (`oracle-perturb:…`,
    /// `rule-perturb:…`); empty for a real hunt.
    pub failpoints: Failpoints,
    /// Upper bound on oracle probes the shrinker may spend per divergence.
    pub max_shrink_probes: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iters: 100,
            profiles: vec![FuzzProfile::Ordered, FuzzProfile::Unordered],
            failpoints: Failpoints::none(),
            max_shrink_probes: 400,
        }
    }
}

/// One confirmed oracle divergence, minimized and attributed.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub iteration: usize,
    pub profile: FuzzProfile,
    /// The generated corpus the query ran over.
    pub corpus: Corpus,
    /// The query as generated.
    pub query: String,
    /// The minimized still-diverging query.
    pub minimized: String,
    /// Syntactic weight (see [`crate::shrink::weight`]) before/after.
    pub original_weight: usize,
    pub minimized_weight: usize,
    /// Which rewrite rule (or engine-side fault) causes the divergence.
    pub attribution: Attribution,
    /// The oracle's message for the minimized query.
    pub message: String,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub seed: u64,
    /// Total (iteration × profile) cells executed.
    pub cells: usize,
    /// Cells where all three arms agreed.
    pub passed: usize,
    /// Cells where some arm raised a non-verification error (the query
    /// exercised an engine limit; not a divergence).
    pub skipped: usize,
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fuzz seed {}: {} cells, {} passed, {} skipped, {} divergences",
            self.seed,
            self.cells,
            self.passed,
            self.skipped,
            self.divergences.len()
        )?;
        for d in &self.divergences {
            write!(
                f,
                "\n  iter {} [{}] weight {} -> {}\n    query:     {}\n    minimized: {}\n    culprit:   {}",
                d.iteration,
                d.profile,
                d.original_weight,
                d.minimized_weight,
                d.query,
                d.minimized,
                d.attribution
            )?;
        }
        Ok(())
    }
}

/// Does the oracle diverge (EXRQ0004) on `query` over `doc`? Non-verify
/// errors (parse, compile, budget, …) are *not* divergences.
pub(crate) fn oracle_diverges(corpus: &Corpus, query: &str, opts: &QueryOptions) -> bool {
    matches!(
        oracle_outcome(corpus, query, opts),
        OracleOutcome::Diverged(_)
    )
}

pub(crate) enum OracleOutcome {
    Agreed,
    Diverged(String),
    Errored,
}

/// Run the three-way oracle on one (corpus, query) cell.
pub(crate) fn oracle_outcome(corpus: &Corpus, query: &str, opts: &QueryOptions) -> OracleOutcome {
    let mut session = Session::new();
    if load_corpus(&mut session, corpus).is_err() {
        return OracleOutcome::Errored;
    }
    match session.verify(query, opts) {
        Ok(_) => OracleOutcome::Agreed,
        Err(Error::Verify(e)) => OracleOutcome::Diverged(e.message),
        Err(_) => OracleOutcome::Errored,
    }
}

/// Run the fuzzer.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        seed: cfg.seed,
        cells: 0,
        passed: 0,
        skipped: 0,
        divergences: Vec::new(),
    };
    for i in 0..cfg.iters {
        for &profile in &cfg.profiles {
            report.cells += 1;
            let mut rng = cell_rng(cfg.seed, i, profile);
            // Every third iteration fuzzes a multi-document corpus (the
            // `fn:collection()` arm); the gate is positional, not an RNG
            // draw, so the other two thirds reproduce historical seeds
            // exactly.
            let (corpus, expr) = if i % 3 == 2 {
                let corpus = gen_corpus(&mut rng);
                let expr = gen_query_corpus(&mut rng, profile, &corpus.urls());
                (corpus, expr)
            } else {
                let doc = gen_doc(&mut rng);
                (Corpus::single(doc), gen_query(&mut rng, profile))
            };
            let query = pretty(&expr);
            let opts = profile.options().with_failpoints(cfg.failpoints.clone());
            match oracle_outcome(&corpus, &query, &opts) {
                OracleOutcome::Agreed => report.passed += 1,
                OracleOutcome::Errored => report.skipped += 1,
                OracleOutcome::Diverged(_) => {
                    let out = shrink(&expr, cfg.max_shrink_probes, |text| {
                        oracle_diverges(&corpus, text, &opts)
                    });
                    let message = match oracle_outcome(&corpus, &out.text, &opts) {
                        OracleOutcome::Diverged(m) => m,
                        // Unreachable: the shrinker only accepts diverging
                        // candidates; keep a plain marker if it ever isn't.
                        _ => "divergence no longer reproduces".to_string(),
                    };
                    let attribution = attribute_divergence(&corpus, &out.text, &opts);
                    report.divergences.push(Divergence {
                        iteration: i,
                        profile,
                        corpus,
                        original_weight: weight(&expr),
                        query,
                        minimized: out.text,
                        minimized_weight: out.weight,
                        attribution,
                        message,
                    });
                }
            }
        }
    }
    report
}

/// Deterministic per-cell RNG: iteration and profile perturb the base
/// seed through one SplitMix64 round so neighbouring cells decorrelate.
pub fn cell_rng(seed: u64, iteration: usize, profile: FuzzProfile) -> SmallRng {
    let mixed = seed
        .wrapping_add((iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(profile.salt().wrapping_mul(0xBF58_476D_1CE4_E5B9));
    SmallRng::seed_from_u64(mixed)
}

// ---------------------------------------------------------------------
// Document generation
// ---------------------------------------------------------------------

struct DocNode {
    name: &'static str,
    children: Vec<DocNode>,
    text: Option<i64>,
}

fn gen_tree(rng: &mut SmallRng, depth: usize) -> DocNode {
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    let mut children = Vec::new();
    if depth < 2 {
        for _ in 0..rng.gen_range(0..=3usize) {
            children.push(gen_tree(rng, depth + 1));
        }
    }
    let text = if children.is_empty() && rng.gen_bool(0.6) {
        Some(rng.gen_range(0i64..10))
    } else {
        None
    };
    DocNode {
        name,
        children,
        text,
    }
}

fn count_nodes(n: &DocNode) -> usize {
    1 + n.children.iter().map(count_nodes).sum::<usize>()
}

fn render(n: &DocNode, ids: &[i64], next: &mut usize, out: &mut String) {
    let id = ids[*next];
    *next += 1;
    out.push_str(&format!("<{} id=\"{}\">", n.name, id));
    if let Some(t) = n.text {
        out.push_str(&t.to_string());
    }
    for c in &n.children {
        render(c, ids, next, out);
    }
    out.push_str(&format!("</{}>", n.name));
}

/// Generate a random document: a small tree of elements from the name
/// pool, where *every* element carries an `id` attribute holding a value
/// unique within the document (a shuffled permutation of `1..=n`).
/// Uniqueness makes `order by …/@id` keys total, so sequence-equivalence
/// verification of `order by` queries cannot trip over tie-breaking.
pub fn gen_doc(rng: &mut SmallRng) -> String {
    gen_doc_from(rng, 0).0
}

/// [`gen_doc`] with ids drawn from `base+1..=base+n`: documents of one
/// multi-document corpus take disjoint id ranges, so order-by keys and
/// join predicates stay total *across* the corpus, not just within one
/// document. Returns the document and its node count (the next base).
fn gen_doc_from(rng: &mut SmallRng, base: i64) -> (String, usize) {
    let root = DocNode {
        name: "r",
        children: (0..rng.gen_range(2..=4usize))
            .map(|_| gen_tree(rng, 0))
            .collect(),
        text: None,
    };
    let n = count_nodes(&root);
    let mut ids: Vec<i64> = (base + 1..=base + n as i64).collect();
    // Fisher–Yates: ids land on elements in shuffled order, so document
    // order and id order disagree (which is what makes order-dropping
    // bugs observable).
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let mut out = String::new();
    let mut next = 0;
    render(&root, &ids, &mut next, &mut out);
    (out, n)
}

/// Generate a multi-document corpus: 2–4 documents with disjoint id
/// ranges.
pub fn gen_corpus(rng: &mut SmallRng) -> Corpus {
    let n = rng.gen_range(2..=4usize);
    let mut base = 0i64;
    let mut docs = Vec::with_capacity(n);
    for k in 0..n {
        let (xml, nodes) = gen_doc_from(rng, base);
        base += nodes as i64;
        docs.push((format!("f{k}.xml"), xml));
    }
    // Catalogs used to be split into a drawn number of parts here. The
    // draw stays so every recorded seed still generates the queries it
    // was recorded with.
    rng.gen_range(1..=n + 1);
    Corpus { docs }
}

// ---------------------------------------------------------------------
// Query generation
// ---------------------------------------------------------------------

struct Gen<'a> {
    rng: &'a mut SmallRng,
    profile: FuzzProfile,
    /// Document URLs queries may `doc(...)`; more than one URL also
    /// unlocks `fn:collection()` path roots (the whole-corpus scan).
    urls: Vec<String>,
    /// Node-sequence variables in scope: `for`-bound singletons *and*
    /// `let`-bound whole sequences. Safe as path inputs, not as
    /// singleton expressions.
    node_vars: Vec<String>,
    /// The `for`-bound subset of [`Gen::node_vars`]: exactly one node
    /// per tuple, so `$v/@id` is a singleton and `string($v/@id)` is
    /// deterministic. Singleton contexts (order-by keys, constructor
    /// content) must draw from here only — a `let`-bound sequence there
    /// would make the oracle's admissible set ambiguous.
    for_vars: Vec<String>,
    next_var: usize,
}

/// Generate one random well-formed query for `profile`. Queries read
/// [`FUZZ_DOC_URL`] and use only constructs every oracle arm supports;
/// under [`FuzzProfile::Unordered`] no order-observing construct
/// (positional predicate, `at` variable) is emitted.
pub fn gen_query(rng: &mut SmallRng, profile: FuzzProfile) -> Expr {
    gen_query_corpus(rng, profile, &[FUZZ_DOC_URL.to_string()])
}

/// [`gen_query`] over a multi-document corpus: `doc(...)` calls draw
/// from `urls`, and with more than one URL paths may also root at
/// `fn:collection()` — so generated queries join across documents
/// (`doc("f0.xml")//a[@id eq doc("f2.xml")//b/@id]`-shaped predicates
/// arise from the ordinary comparison grammar once the two sides pick
/// different documents). With a single URL the draw sequence is
/// identical to the original single-document generator, keeping every
/// historical seed's query stream intact.
pub fn gen_query_corpus(rng: &mut SmallRng, profile: FuzzProfile, urls: &[String]) -> Expr {
    let mut g = Gen {
        rng,
        profile,
        urls: urls.to_vec(),
        node_vars: Vec::new(),
        for_vars: Vec::new(),
        next_var: 0,
    };
    match g.rng.gen_range(0..10u32) {
        0..=4 => g.flwor(0),
        5..=6 => g.path(0),
        7 => g.aggregate(0),
        8 => g.element(0),
        _ => {
            let n = g.rng.gen_range(2..=3usize);
            Expr::Sequence((0..n).map(|_| g.small_expr(1)).collect())
        }
    }
}

impl Gen<'_> {
    fn fresh_var(&mut self) -> String {
        self.next_var += 1;
        format!("v{}", self.next_var)
    }

    fn name(&mut self) -> String {
        NAMES[self.rng.gen_range(0..NAMES.len())].to_string()
    }

    fn doc_call(&mut self) -> Expr {
        // Single-URL corpora draw nothing from the RNG, so the
        // single-document query stream is bit-identical to before
        // multi-document support existed.
        let url = if self.urls.len() == 1 {
            self.urls[0].clone()
        } else {
            self.urls[self.rng.gen_range(0..self.urls.len())].clone()
        };
        Expr::Call {
            name: "doc".into(),
            args: vec![Expr::StrLit(url)],
        }
    }

    /// A path root: one document, or (multi-document corpora only)
    /// `fn:collection()` — the whole-corpus scan.
    fn source(&mut self) -> Expr {
        if self.urls.len() > 1 && self.rng.gen_bool(0.3) {
            return Expr::Call {
                name: "collection".into(),
                args: vec![],
            };
        }
        self.doc_call()
    }

    /// `…/@id` relative to `base`.
    fn id_of(&mut self, base: Expr) -> Expr {
        Expr::PathStep {
            input: Box::new(base),
            axis: Axis::Attribute,
            test: NodeTestAst::Name("id".into()),
            predicates: vec![],
        }
    }

    /// A path over the document (or a bound node variable), 1–3 steps,
    /// possibly predicated.
    fn path(&mut self, depth: usize) -> Expr {
        let mut e = if !self.node_vars.is_empty() && self.rng.gen_bool(0.4) {
            let i = self.rng.gen_range(0..self.node_vars.len());
            Expr::Var(self.node_vars[i].clone())
        } else {
            self.source()
        };
        let steps = self.rng.gen_range(1..=3usize);
        for _ in 0..steps {
            let axis = match self.rng.gen_range(0..6u32) {
                0 | 1 => Axis::Child,
                2 | 3 => Axis::Descendant,
                4 => Axis::DescendantOrSelf,
                _ => Axis::Descendant,
            };
            let test = if self.rng.gen_bool(0.25) {
                NodeTestAst::Wildcard
            } else {
                NodeTestAst::Name(self.name())
            };
            let mut predicates = Vec::new();
            if depth < 3 && self.rng.gen_bool(0.35) {
                predicates.push(self.predicate(depth + 1));
            }
            e = Expr::PathStep {
                input: Box::new(e),
                axis,
                test,
                predicates,
            };
        }
        // `(path)[pos]` — a positional filter in *expression* position,
        // the sequence-level cousin of the step predicate (ordered
        // profile only: it observes document order).
        if self.profile == FuzzProfile::Ordered && depth < 2 && self.rng.gen_bool(0.15) {
            let p = self.positional_predicate();
            e = Expr::Filter {
                input: Box::new(e),
                predicate: Box::new(p),
            };
        }
        e
    }

    /// A predicate expression (evaluated with the step's context item).
    fn predicate(&mut self, _depth: usize) -> Expr {
        match self.rng.gen_range(0..4u32) {
            // @id <op> k
            0 | 1 => {
                let id = self.id_of(Expr::ContextItem);
                let k = Expr::IntLit(self.rng.gen_range(0i64..20));
                let op = self.comparison_op();
                Expr::binary(op, id, k)
            }
            // existence of a child
            2 => Expr::PathStep {
                input: Box::new(Expr::ContextItem),
                axis: Axis::Child,
                test: NodeTestAst::Name(self.name()),
                predicates: vec![],
            },
            // positional predicate — order-observing, ordered profile only
            _ => {
                if self.profile == FuzzProfile::Ordered {
                    self.positional_predicate()
                } else {
                    let id = self.id_of(Expr::ContextItem);
                    Expr::binary(BinOp::GenGt, id, Expr::IntLit(0))
                }
            }
        }
    }

    /// An order-observing positional predicate (ordered profile only):
    /// a bare integer position, a `position()` comparison against a
    /// literal, or `position() eq last()` / `position() ne last()`.
    /// Positions range past the typical sibling count so empty
    /// selections are exercised, not just hits.
    fn positional_predicate(&mut self) -> Expr {
        let position = || Expr::Call {
            name: "position".into(),
            args: vec![],
        };
        let last = || Expr::Call {
            name: "last".into(),
            args: vec![],
        };
        match self.rng.gen_range(0..4u32) {
            // [k] — now up to positions that often miss
            0 | 1 => Expr::IntLit(self.rng.gen_range(1i64..6)),
            // [position() <op> k]
            2 => {
                let k = Expr::IntLit(self.rng.gen_range(1i64..5));
                let op = self.comparison_op();
                Expr::binary(op, position(), k)
            }
            // [position() eq last()] (or ne — the complement)
            _ => {
                let op = if self.rng.gen_bool(0.5) {
                    BinOp::GenEq
                } else {
                    BinOp::GenNe
                };
                Expr::binary(op, position(), last())
            }
        }
    }

    fn comparison_op(&mut self) -> BinOp {
        match self.rng.gen_range(0..6u32) {
            0 => BinOp::GenEq,
            1 => BinOp::GenNe,
            2 => BinOp::GenLt,
            3 => BinOp::GenLe,
            4 => BinOp::GenGt,
            _ => BinOp::GenGe,
        }
    }

    /// An aggregate over a path: `count`/`exists`/`empty`/`sum`/`max`.
    fn aggregate(&mut self, depth: usize) -> Expr {
        let (name, numeric) = match self.rng.gen_range(0..6u32) {
            0 | 1 => ("count", false),
            2 => ("exists", false),
            3 => ("empty", false),
            4 => ("sum", true),
            _ => ("max", true),
        };
        let mut arg = self.path(depth + 1);
        if numeric {
            // Aggregate over the numeric `id` attributes, which every
            // element carries, so atomization never fails.
            arg = self.id_of(arg);
        }
        // `unordered { … }` under an aggregate is sound in either mode
        // (rules FN:COUNT / FN:SUM…); exercise it from time to time.
        if self.rng.gen_bool(0.3) {
            arg = Expr::OrderingScope {
                mode: OrderingMode::Unordered,
                expr: Box::new(arg),
            };
        }
        Expr::Call {
            name: name.into(),
            args: vec![arg],
        }
    }

    /// A general comparison between data of two paths / literals.
    fn comparison(&mut self, depth: usize) -> Expr {
        let l = if self.rng.gen_bool(0.5) {
            let p = self.path(depth + 1);
            self.id_of(p)
        } else {
            self.aggregate(depth + 1)
        };
        let r = if self.rng.gen_bool(0.7) {
            Expr::IntLit(self.rng.gen_range(0i64..20))
        } else {
            let p = self.path(depth + 1);
            self.id_of(p)
        };
        let op = self.comparison_op();
        Expr::binary(op, l, r)
    }

    /// Arithmetic over aggregates and literals; divisors are non-zero
    /// literals so no arm can trip a division error.
    fn arith(&mut self, depth: usize) -> Expr {
        let l = self.aggregate(depth + 1);
        let r = Expr::IntLit(self.rng.gen_range(1i64..9));
        let op = match self.rng.gen_range(0..5u32) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            _ => BinOp::Div,
        };
        Expr::binary(op, l, r)
    }

    /// `some`/`every` quantifier over a path.
    fn quantified(&mut self, depth: usize) -> Expr {
        let var = self.fresh_var();
        let domain = self.path(depth + 1);
        let id = self.id_of(Expr::Var(var.clone()));
        let satisfies = Expr::binary(
            self.comparison_op(),
            id,
            Expr::IntLit(self.rng.gen_range(0i64..20)),
        );
        Expr::Quantified {
            quant: if self.rng.gen_bool(0.5) {
                Quant::Some
            } else {
                Quant::Every
            },
            var,
            domain: Box::new(domain),
            satisfies: Box::new(satisfies),
        }
    }

    /// An element constructor wrapping a sub-expression.
    ///
    /// Constructor content *freezes* sequence order into the built node:
    /// serialization makes it observable even under bag comparison of the
    /// top-level results. In unordered mode the order of path / union /
    /// FLWOR results is implementation-dependent, so content built from
    /// them has many admissible serializations the oracle cannot tell
    /// apart from bugs — the unordered profile therefore only puts
    /// single-item expressions into constructors. (The fuzzer found this
    /// family on its first long run; see the regression cases.)
    fn element(&mut self, depth: usize) -> Expr {
        // `text { … }` freezes its content exactly like element content
        // does; a singleton keeps the value deterministic in either
        // profile (multi-item content would be space-joined in an
        // implementation-dependent order under `unordered`).
        if self.rng.gen_bool(0.2) {
            let content = self.singleton_expr(depth + 1);
            return Expr::TextConstructor(Box::new(content));
        }
        if self.rng.gen_bool(0.5) {
            self.dir_element(depth, 0)
        } else {
            let content = self.content_expr(depth + 1);
            Expr::ElemConstructor {
                name: "out".into(),
                content: Box::new(content),
            }
        }
    }

    /// Constructor content under the profile's singleton rule.
    fn content_expr(&mut self, depth: usize) -> Expr {
        if self.profile == FuzzProfile::Unordered {
            self.singleton_expr(depth)
        } else {
            self.small_expr(depth)
        }
    }

    /// A direct constructor of 1–3 parts — nested direct constructors
    /// (`nest` levels above this one, at most two), literal text and
    /// enclosed expressions — and now and then an attribute: the shapes
    /// the compiler flattens into one twig, with the spacing, text-merge
    /// and attribute rules crossing element boundaries.
    fn dir_element(&mut self, depth: usize, nest: usize) -> Expr {
        use exrquy::frontend::{AttrPart, DirAttr, ElemContent};
        let mut attrs = Vec::new();
        if self.rng.gen_bool(0.3) {
            let value = if self.rng.gen_bool(0.5) {
                AttrPart::Lit("v".into())
            } else {
                AttrPart::Expr(self.singleton_expr(depth + 1))
            };
            attrs.push(DirAttr {
                name: "k".into(),
                value: vec![value],
            });
        }
        let mut content = Vec::new();
        for _ in 0..self.rng.gen_range(1..=3usize) {
            // Two literal runs in a row would re-parse as one.
            let after_text = matches!(content.last(), Some(ElemContent::Text(_)));
            content.push(match self.rng.gen_range(0..5u32) {
                0 | 1 if nest < 2 => ElemContent::Expr(self.dir_element(depth + 1, nest + 1)),
                2 if !after_text => ElemContent::Text("t".into()),
                _ => ElemContent::Expr(self.content_expr(depth + 1)),
            });
        }
        Expr::DirElement {
            name: ["out", "mid", "leaf"][nest].into(),
            attrs,
            content,
        }
    }

    /// A FLWOR: 1–2 `for` clauses over paths, optional `let` (an
    /// arithmetic value or a whole node sequence), `where`, `order by`,
    /// returning something that uses the bound variables.
    fn flwor(&mut self, depth: usize) -> Expr {
        let outer_vars = self.node_vars.len();
        let outer_for = self.for_vars.len();
        let mut clauses = Vec::new();
        let nfor = self.rng.gen_range(1..=2usize);
        for _ in 0..nfor {
            let seq = self.path(depth + 1);
            let var = self.fresh_var();
            // `at $p` observes iteration order: ordered profile only.
            let pos_var = if self.profile == FuzzProfile::Ordered && self.rng.gen_bool(0.25) {
                Some(self.fresh_var())
            } else {
                None
            };
            self.node_vars.push(var.clone());
            self.for_vars.push(var.clone());
            clauses.push(Clause::For { var, pos_var, seq });
        }
        if self.rng.gen_bool(0.3) {
            if self.rng.gen_bool(0.5) {
                // `let` over a node *sequence*: the variable holds all
                // matching nodes at once, later streamed by paths or
                // returned whole — the optimizer must not confuse its
                // (absent) iteration order with a `for` binding's.
                let expr = self.path(depth + 1);
                let var = self.fresh_var();
                self.node_vars.push(var.clone());
                clauses.push(Clause::Let { var, expr });
            } else {
                let expr = self.arith(depth + 1);
                clauses.push(Clause::Let {
                    var: self.fresh_var(),
                    expr,
                });
            }
        }
        if self.rng.gen_bool(0.4) {
            let w = self.comparison(depth + 1);
            clauses.push(Clause::Where(w));
        }
        let mut order_by = Vec::new();
        if self.rng.gen_bool(if self.profile == FuzzProfile::Ordered {
            0.6
        } else {
            0.3
        }) {
            // Keys over the unique `id` attribute are total, so ordering
            // is deterministic in every arm. Drawn from this FLWOR's
            // `for` bindings only: a `let`-bound sequence is no
            // singleton, so it cannot be an order key.
            let nth = self.rng.gen_range(outer_for..self.for_vars.len());
            let var = self.for_vars[nth].clone();
            let key = self.id_of(Expr::Var(var));
            order_by.push(OrderSpec {
                key,
                descending: self.rng.gen_bool(0.5),
            });
        }
        let ret = self.flwor_return(depth + 1);
        self.node_vars.truncate(outer_vars);
        self.for_vars.truncate(outer_for);
        Expr::Flwor {
            clauses,
            order_by,
            reordered: false,
            ret: Box::new(ret),
        }
    }

    fn flwor_return(&mut self, depth: usize) -> Expr {
        match self.rng.gen_range(0..5u32) {
            // Returning any in-scope node var is fine — a `let`-bound
            // sequence just yields all its nodes per tuple.
            0 | 1 => Expr::Var(
                self.node_vars
                    .last()
                    .cloned()
                    .unwrap_or_else(|| "missing".into()),
            ),
            // `string(...)` needs a singleton: `for`-bound vars only.
            2 => {
                let var = self
                    .for_vars
                    .last()
                    .cloned()
                    .unwrap_or_else(|| "missing".into());
                let id = self.id_of(Expr::Var(var));
                Expr::Call {
                    name: "string".into(),
                    args: vec![id],
                }
            }
            3 => self.element(depth),
            _ => self.small_expr(depth),
        }
    }

    /// An expression guaranteed to evaluate to at most one item with a
    /// deterministic value in every arm (safe as constructor content in
    /// the unordered profile).
    fn singleton_expr(&mut self, depth: usize) -> Expr {
        match self.rng.gen_range(0..4u32) {
            0 => Expr::IntLit(self.rng.gen_range(0i64..10)),
            1 => self.aggregate(depth),
            2 => self.arith(depth),
            _ => {
                // Singleton context: only `for`-bound vars qualify.
                if let Some(var) = self.for_vars.last().cloned() {
                    let id = self.id_of(Expr::Var(var));
                    Expr::Call {
                        name: "string".into(),
                        args: vec![id],
                    }
                } else {
                    self.aggregate(depth)
                }
            }
        }
    }

    /// A bounded sub-expression for leaf positions.
    fn small_expr(&mut self, depth: usize) -> Expr {
        if depth >= 3 {
            return match self.rng.gen_range(0..3u32) {
                0 => Expr::IntLit(self.rng.gen_range(0i64..10)),
                1 => self.path(depth),
                _ => self.aggregate(depth),
            };
        }
        match self.rng.gen_range(0..10u32) {
            0 | 1 => self.path(depth),
            2 | 3 => self.aggregate(depth),
            4 => self.comparison(depth),
            5 => self.arith(depth),
            6 => self.quantified(depth),
            7 => self.flwor(depth),
            8 => {
                let cond = self.comparison(depth + 1);
                let then = self.small_expr(depth + 1);
                let els = self.small_expr(depth + 1);
                Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                }
            }
            _ => {
                // Set operation over two paths (doc-order establishing;
                // intersect/except exercise the node-set pruning rewrites).
                let l = self.path(depth + 1);
                let r = self.path(depth + 1);
                let op = match self.rng.gen_range(0..4u32) {
                    0 | 1 => BinOp::Union,
                    2 => BinOp::Intersect,
                    _ => BinOp::Except,
                };
                Expr::binary(op, l, r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy::frontend::parse_module;

    #[test]
    fn generation_is_deterministic() {
        for profile in [FuzzProfile::Ordered, FuzzProfile::Unordered] {
            for i in 0..20 {
                let mut a = cell_rng(7, i, profile);
                let mut b = cell_rng(7, i, profile);
                assert_eq!(gen_doc(&mut a), gen_doc(&mut b));
                assert_eq!(
                    pretty(&gen_query(&mut a, profile)),
                    pretty(&gen_query(&mut b, profile))
                );
            }
        }
    }

    #[test]
    fn generated_docs_load_and_queries_parse() {
        for profile in [FuzzProfile::Ordered, FuzzProfile::Unordered] {
            for i in 0..50 {
                let mut rng = cell_rng(99, i, profile);
                let doc = gen_doc(&mut rng);
                let mut s = Session::new();
                s.load_document(FUZZ_DOC_URL, &doc)
                    .unwrap_or_else(|e| panic!("generated doc malformed: {e}\n{doc}"));
                let q = pretty(&gen_query(&mut rng, profile));
                parse_module(&q).unwrap_or_else(|e| panic!("generated query unparsable: {e}\n{q}"));
            }
        }
    }

    #[test]
    fn clean_run_finds_no_divergences() {
        let cfg = FuzzConfig {
            seed: 7,
            iters: 15,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert!(report.clean(), "{report}");
        assert!(report.passed > 0, "{report}");
    }

    #[test]
    fn corpus_ids_are_unique_across_documents() {
        let mut rng = cell_rng(11, 2, FuzzProfile::Ordered);
        let corpus = gen_corpus(&mut rng);
        assert!((2..=4).contains(&corpus.docs.len()));
        // Disjoint id ranges across the corpus: collect every id.
        let mut ids: Vec<i64> = Vec::new();
        for (_, xml) in &corpus.docs {
            for part in xml.split("id=\"").skip(1) {
                ids.push(part[..part.find('"').unwrap()].parse().unwrap());
            }
        }
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "corpus ids must be unique across documents");
    }

    #[test]
    fn single_url_corpus_queries_match_the_legacy_stream() {
        // gen_query must stay a bit-identical alias of gen_query_corpus
        // over [FUZZ_DOC_URL]: historical seeds depend on it.
        let urls = vec![FUZZ_DOC_URL.to_string()];
        for profile in [FuzzProfile::Ordered, FuzzProfile::Unordered] {
            for i in 0..20 {
                let mut a = cell_rng(3, i, profile);
                let mut b = cell_rng(3, i, profile);
                let _ = gen_doc(&mut a);
                let _ = gen_doc(&mut b);
                assert_eq!(
                    pretty(&gen_query(&mut a, profile)),
                    pretty(&gen_query_corpus(&mut b, profile, &urls))
                );
            }
        }
    }

    #[test]
    fn multi_document_cells_run_clean_and_exercise_collection() {
        // The corpus arm must both generate cross-document queries and
        // come back clean on an unperturbed engine.
        let cfg = FuzzConfig {
            seed: 20260808,
            iters: 18,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert!(report.clean(), "{report}");
        // At least one multi-document cell must draw a collection() or a
        // second document — otherwise the arm is generating but not
        // exercising the corpus.
        let mut saw_corpus_read = false;
        for i in (2..cfg.iters).step_by(3) {
            for profile in [FuzzProfile::Ordered, FuzzProfile::Unordered] {
                let mut rng = cell_rng(cfg.seed, i, profile);
                let urls = gen_corpus(&mut rng).urls();
                let q = pretty(&gen_query_corpus(&mut rng, profile, &urls));
                if q.contains("collection") || urls[1..].iter().any(|u| q.contains(u.as_str())) {
                    saw_corpus_read = true;
                }
            }
        }
        assert!(saw_corpus_read, "no multi-document cell read past f0.xml");
    }
}
