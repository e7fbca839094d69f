//! Deterministic fault injection: a failpoint registry configured from a
//! compact spec string (CLI `--inject` / env `EXRQ_INJECT`).
//!
//! A [`Failpoints`] value is pure configuration — immutable thresholds
//! with no interior mutability — so a single registry can be cloned into
//! every pipeline layer (document resolver, engine, oracle) and each
//! consumer keeps its own deterministic counters. Running the same query
//! with the same spec therefore trips exactly the same failpoint at
//! exactly the same place, which is what makes fault-injection tests
//! reproducible.
//!
//! Spec grammar (comma-separated, order-insensitive):
//!
//! ```text
//!   doc-io:<n>          fail the n-th fn:doc access with FODC0002
//!   doc-parse:<n>       fail the n-th document load as malformed (FODC0006)
//!   budget-trip:<op>    trip EXRQ0001 when evaluating an operator of the
//!                       given kind (rownum, rowid, step, join, select,
//!                       project, distinct, union, aggr, …)
//!   cancel-after:<n>    cancel (EXRQ0002) at the n-th operator boundary
//!   oracle-perturb:<arm> corrupt one oracle arm's result
//!                       (arm ∈ baseline | optimized | noweaken)
//!   rule-perturb:<rule> apply the named rewrite rule in a deliberately
//!                       unsound variant (a planted optimizer bug; rule ∈
//!                       PERTURBABLE_RULES)
//!   stats-perturb:<f>   deterministically corrupt the cost model's
//!                       cardinality estimates by factor f (even operator
//!                       ids ×f, odd ÷f) — wrong statistics may change
//!                       which plan wins, never what it returns
//!   panic:<op>          panic (deliberately) when evaluating an operator
//!                       of the given kind — exercises the serving layer's
//!                       panic containment (EXRQ0009)
//!   net-torn-write:<n>  tear every n-th response write: flush half the
//!                       frame, pause, then the rest (framing must survive)
//!   net-disconnect:<n>  drop the connection mid-frame on every n-th
//!                       response write
//!   net-trickle:<n>     slow-loris every n-th response: dribble the first
//!                       bytes one at a time with flushes in between
//!   net-slow-read:<n>   delay every n-th request read on a connection
//! ```
//!
//! Example: `--inject doc-io:2,budget-trip:rownum,cancel-after:5`.
//!
//! The `net-*` chaos-transport points use every-n-th semantics with
//! per-connection counters, so the fault pattern is deterministic per
//! connection no matter how clients reconnect.

use std::fmt;

/// Which differential-oracle arm an `oracle-perturb` failpoint corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleArm {
    /// Unoptimized, fully order-aware reference execution.
    Baseline,
    /// The optimized plan under the requested options.
    Optimized,
    /// Optimized with `%`-weakening disabled.
    NoWeaken,
}

impl OracleArm {
    pub fn as_str(self) -> &'static str {
        match self {
            OracleArm::Baseline => "baseline",
            OracleArm::Optimized => "optimized",
            OracleArm::NoWeaken => "noweaken",
        }
    }
}

impl fmt::Display for OracleArm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The rewrite rules with a planted unsound variant — the only names
/// `rule-perturb:<rule>` accepts, so a typo or an unplanted rule is a spec
/// error instead of a run that plants nothing and passes as clean.
pub const PERTURBABLE_RULES: &[&str] = &["weaken-criteria", "join-elim-key-domain"];

/// Error parsing a failpoint spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointSpecError(pub String);

impl fmt::Display for FailpointSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid failpoint spec: {}", self.0)
    }
}

impl std::error::Error for FailpointSpecError {}

/// Immutable registry of armed failpoints. `Default` is "nothing armed";
/// [`Failpoints::is_empty`] lets hot paths skip all checks with one branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Failpoints {
    /// 1-based index of the `fn:doc` access that fails with an injected
    /// I/O error.
    pub doc_io: Option<usize>,
    /// 1-based index of the document load that fails as malformed content.
    pub doc_parse: Option<usize>,
    /// Operator-kind names (canonical symbols, e.g. `"%"`, `"⬡"`) whose
    /// evaluation trips the execution budget.
    pub budget_trip: Vec<String>,
    /// Cancel after this many operator evaluations.
    pub cancel_after: Option<usize>,
    /// Corrupt this oracle arm's result sequence.
    pub oracle_perturb: Option<OracleArm>,
    /// Apply this named rewrite rule unsoundly (planted optimizer bug).
    pub rule_perturb: Option<String>,
    /// Corrupt cost-model cardinality estimates by this factor, stored as
    /// bits so the registry stays `Eq` (planted planner-statistics bug:
    /// the plan may change, serialized results must not).
    pub stats_perturb: Option<u64>,
    /// Operator kind (canonical symbol) whose evaluation panics — the
    /// deterministic trigger for the serving layer's panic containment.
    pub panic_op: Option<String>,
    /// Tear every n-th response write on a connection.
    pub net_torn_write: Option<usize>,
    /// Disconnect mid-frame on every n-th response write.
    pub net_disconnect: Option<usize>,
    /// Slow-loris trickle every n-th response write.
    pub net_trickle: Option<usize>,
    /// Delay every n-th request read on a connection.
    pub net_slow_read: Option<usize>,
}

/// Map a user-facing operator alias to the canonical kind name used by
/// the algebra (`Op::kind_name`). Unknown aliases pass through verbatim,
/// so the canonical symbols themselves are always accepted.
fn canonical_op_kind(alias: &str) -> String {
    match alias {
        "rownum" => "%".to_string(),
        "rowid" => "#".to_string(),
        "step" => "⬡".to_string(),
        "select" => "σ".to_string(),
        "project" => "π".to_string(),
        "distinct" => "δ".to_string(),
        "union" => "∪̇".to_string(),
        "join" => "⋈".to_string(),
        "thetajoin" => "⋈θ".to_string(),
        "cross" => "×".to_string(),
        "difference" => "\\".to_string(),
        other => other.to_string(),
    }
}

impl Failpoints {
    /// Registry with nothing armed.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no failpoint is armed (the fast-path check).
    pub fn is_empty(&self) -> bool {
        self == &Self::default()
    }

    /// Parse a comma-separated spec (see the module docs for the grammar).
    /// The empty string parses to an empty registry.
    pub fn parse(spec: &str) -> Result<Self, FailpointSpecError> {
        let mut fp = Failpoints::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, arg) = match part.split_once(':') {
                Some((n, a)) => (n.trim(), Some(a.trim())),
                None => (part, None),
            };
            let num = |what: &str| -> Result<usize, FailpointSpecError> {
                let raw = arg.ok_or_else(|| {
                    FailpointSpecError(format!("`{what}` needs a numeric argument, e.g. {what}:2"))
                })?;
                raw.parse::<usize>().map_err(|_| {
                    FailpointSpecError(format!("`{what}`: cannot parse `{raw}` as a number"))
                })
            };
            match name {
                "doc-io" => fp.doc_io = Some(num("doc-io")?.max(1)),
                "doc-parse" => fp.doc_parse = Some(num("doc-parse")?.max(1)),
                "cancel-after" => fp.cancel_after = Some(num("cancel-after")?),
                "budget-trip" => {
                    let op = arg.filter(|a| !a.is_empty()).ok_or_else(|| {
                        FailpointSpecError(
                            "`budget-trip` needs an operator kind, e.g. budget-trip:rownum".into(),
                        )
                    })?;
                    fp.budget_trip.push(canonical_op_kind(op));
                }
                "oracle-perturb" => {
                    let arm = match arg {
                        Some("baseline") => OracleArm::Baseline,
                        Some("optimized") | Some("opt") => OracleArm::Optimized,
                        Some("noweaken") => OracleArm::NoWeaken,
                        other => {
                            return Err(FailpointSpecError(format!(
                                "`oracle-perturb`: unknown arm `{}` \
                                 (expected baseline|optimized|noweaken)",
                                other.unwrap_or("")
                            )))
                        }
                    };
                    fp.oracle_perturb = Some(arm);
                }
                "rule-perturb" => {
                    let rule = arg
                        .filter(|a| PERTURBABLE_RULES.contains(a))
                        .ok_or_else(|| {
                            FailpointSpecError(format!(
                                "`rule-perturb`: unknown rule `{}` (expected {})",
                                arg.unwrap_or(""),
                                PERTURBABLE_RULES.join("|")
                            ))
                        })?;
                    fp.rule_perturb = Some(rule.to_string());
                }
                "stats-perturb" => {
                    let raw = arg.filter(|a| !a.is_empty()).ok_or_else(|| {
                        FailpointSpecError(
                            "`stats-perturb` needs a factor, e.g. stats-perturb:100".into(),
                        )
                    })?;
                    let f = raw.parse::<f64>().map_err(|_| {
                        FailpointSpecError(format!(
                            "`stats-perturb`: cannot parse `{raw}` as a number"
                        ))
                    })?;
                    if !f.is_finite() || f <= 0.0 {
                        return Err(FailpointSpecError(
                            "`stats-perturb` factor must be finite and positive".into(),
                        ));
                    }
                    fp.stats_perturb = Some(f.to_bits());
                }
                "panic" => {
                    let op = arg.filter(|a| !a.is_empty()).ok_or_else(|| {
                        FailpointSpecError(
                            "`panic` needs an operator kind, e.g. panic:rownum".into(),
                        )
                    })?;
                    fp.panic_op = Some(canonical_op_kind(op));
                }
                "net-torn-write" => fp.net_torn_write = Some(num("net-torn-write")?.max(1)),
                "net-disconnect" => fp.net_disconnect = Some(num("net-disconnect")?.max(1)),
                "net-trickle" => fp.net_trickle = Some(num("net-trickle")?.max(1)),
                "net-slow-read" => fp.net_slow_read = Some(num("net-slow-read")?.max(1)),
                other => {
                    return Err(FailpointSpecError(format!(
                        "unknown failpoint `{other}` (expected doc-io, doc-parse, \
                         budget-trip, cancel-after, oracle-perturb, rule-perturb, \
                         stats-perturb, panic, net-torn-write, net-disconnect, net-trickle, \
                         net-slow-read)"
                    )))
                }
            }
        }
        Ok(fp)
    }

    /// Should the `n`-th (1-based) `fn:doc` access fail with an injected
    /// I/O error?
    pub fn doc_io_fails(&self, access: usize) -> bool {
        self.doc_io == Some(access)
    }

    /// Should the `n`-th (1-based) document load fail as malformed?
    pub fn doc_parse_fails(&self, load: usize) -> bool {
        self.doc_parse == Some(load)
    }

    /// Should evaluating an operator of `kind` trip the budget?
    pub fn trips_budget(&self, kind: &str) -> bool {
        self.budget_trip.iter().any(|k| k == kind)
    }

    /// Should the query cancel at this operator boundary (`ops_seen`
    /// operators already evaluated)?
    pub fn cancels_at(&self, ops_seen: usize) -> bool {
        self.cancel_after.is_some_and(|n| ops_seen >= n)
    }

    /// Should the given oracle arm's result be corrupted?
    pub fn perturbs_arm(&self, arm: OracleArm) -> bool {
        self.oracle_perturb == Some(arm)
    }

    /// The rewrite rule to apply unsoundly, when armed.
    pub fn perturbed_rule(&self) -> Option<&str> {
        self.rule_perturb.as_deref()
    }

    /// The cost-model estimate corruption factor, when armed.
    pub fn perturbed_stats(&self) -> Option<f64> {
        self.stats_perturb.map(f64::from_bits)
    }

    /// Should evaluating an operator of `kind` panic (deliberately)?
    pub fn panics_in(&self, kind: &str) -> bool {
        self.panic_op.as_deref() == Some(kind)
    }

    /// True when any `net-*` chaos-transport point is armed.
    pub fn any_net_chaos(&self) -> bool {
        self.net_torn_write.is_some()
            || self.net_disconnect.is_some()
            || self.net_trickle.is_some()
            || self.net_slow_read.is_some()
    }

    /// Should the `n`-th (1-based) response write on a connection be torn?
    pub fn tears_write(&self, nth: usize) -> bool {
        self.net_torn_write.is_some_and(|k| nth.is_multiple_of(k))
    }

    /// Should the `n`-th (1-based) response write disconnect mid-frame?
    pub fn disconnects_write(&self, nth: usize) -> bool {
        self.net_disconnect.is_some_and(|k| nth.is_multiple_of(k))
    }

    /// Should the `n`-th (1-based) response write trickle byte-by-byte?
    pub fn trickles_write(&self, nth: usize) -> bool {
        self.net_trickle.is_some_and(|k| nth.is_multiple_of(k))
    }

    /// Should the `n`-th (1-based) request read on a connection be delayed?
    pub fn delays_read(&self, nth: usize) -> bool {
        self.net_slow_read.is_some_and(|k| nth.is_multiple_of(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_arms_nothing() {
        let fp = Failpoints::parse("").unwrap();
        assert!(fp.is_empty());
        assert!(!fp.doc_io_fails(1));
        assert!(!fp.trips_budget("%"));
        assert!(!fp.cancels_at(1_000_000));
    }

    #[test]
    fn parses_the_issue_example() {
        let fp = Failpoints::parse("doc-io:2,budget-trip:rownum,cancel-after:5").unwrap();
        assert!(!fp.doc_io_fails(1));
        assert!(fp.doc_io_fails(2));
        assert!(fp.trips_budget("%"));
        assert!(!fp.trips_budget("#"));
        assert!(!fp.cancels_at(4));
        assert!(fp.cancels_at(5));
    }

    #[test]
    fn canonical_symbols_and_aliases_both_work() {
        let fp = Failpoints::parse("budget-trip:⬡,budget-trip:join").unwrap();
        assert!(fp.trips_budget("⬡"));
        assert!(fp.trips_budget("⋈"));
    }

    #[test]
    fn oracle_perturb_arms() {
        let fp = Failpoints::parse("oracle-perturb:optimized").unwrap();
        assert!(fp.perturbs_arm(OracleArm::Optimized));
        assert!(!fp.perturbs_arm(OracleArm::Baseline));
        assert!(Failpoints::parse("oracle-perturb:sideways").is_err());
    }

    #[test]
    fn rule_perturb_arms() {
        let fp = Failpoints::parse("rule-perturb:weaken-criteria").unwrap();
        assert_eq!(fp.perturbed_rule(), Some("weaken-criteria"));
        assert!(!fp.is_empty());
        assert!(Failpoints::parse("rule-perturb:join-elim-key-domain").is_ok());
        assert!(Failpoints::parse("rule-perturb").is_err());
        assert!(Failpoints::parse("rule-perturb:").is_err());
        let err = Failpoints::parse("rule-perturb:merge-steps").unwrap_err();
        assert!(err.0.contains("weaken-criteria"), "{err}");
    }

    #[test]
    fn stats_perturb_arms() {
        let fp = Failpoints::parse("stats-perturb:100").unwrap();
        assert_eq!(fp.perturbed_stats(), Some(100.0));
        assert!(!fp.is_empty());
        let fp = Failpoints::parse("stats-perturb:0.25").unwrap();
        assert_eq!(fp.perturbed_stats(), Some(0.25));
        assert!(Failpoints::parse("stats-perturb").is_err());
        assert!(Failpoints::parse("stats-perturb:").is_err());
        assert!(Failpoints::parse("stats-perturb:0").is_err());
        assert!(Failpoints::parse("stats-perturb:-3").is_err());
        assert!(Failpoints::parse("stats-perturb:inf").is_err());
        assert!(Failpoints::parse("stats-perturb:x").is_err());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Failpoints::parse("doc-io").is_err());
        assert!(Failpoints::parse("doc-io:x").is_err());
        assert!(Failpoints::parse("budget-trip").is_err());
        assert!(Failpoints::parse("frobnicate:3").is_err());
    }

    #[test]
    fn panic_failpoint_canonicalizes_like_budget_trip() {
        let fp = Failpoints::parse("panic:rownum").unwrap();
        assert!(fp.panics_in("%"));
        assert!(!fp.panics_in("#"));
        assert!(!fp.is_empty());
        let fp = Failpoints::parse("panic:⋈θ").unwrap();
        assert!(fp.panics_in("⋈θ"));
        assert!(Failpoints::parse("panic").is_err());
        assert!(Failpoints::parse("panic:").is_err());
    }

    #[test]
    fn net_chaos_points_fire_every_nth() {
        let fp =
            Failpoints::parse("net-torn-write:3,net-disconnect:5,net-trickle:2,net-slow-read:4")
                .unwrap();
        assert!(fp.any_net_chaos());
        assert!(!fp.tears_write(1));
        assert!(fp.tears_write(3));
        assert!(fp.tears_write(6));
        assert!(fp.disconnects_write(5));
        assert!(!fp.disconnects_write(6));
        assert!(fp.trickles_write(2));
        assert!(fp.delays_read(8));
        assert!(!fp.delays_read(7));
        assert!(!Failpoints::parse("doc-io:1").unwrap().any_net_chaos());
        assert!(Failpoints::parse("net-trickle:x").is_err());
    }

    #[test]
    fn whitespace_and_empty_parts_are_tolerated() {
        let fp = Failpoints::parse(" doc-io:1 , , cancel-after:0 ").unwrap();
        assert!(fp.doc_io_fails(1));
        // cancel-after:0 cancels at the very first boundary.
        assert!(fp.cancels_at(0));
    }
}
