//! The registry of named rewrite rules and [`RuleSet`], a compact set of
//! rule names used to disable individual rewrites.
//!
//! Every rewrite the optimizer performs is identified by a `&'static str`
//! rule name (the same name recorded in
//! [`OptReport::trace`](crate::OptReport::trace)). A [`RuleSet`] selects
//! a subset of those names as a bitmask, which keeps [`OptOptions`](crate::OptOptions)
//! `Copy` + `Hash` — the plan cache fingerprints options wholesale, so
//! two configurations that disable different rules must hash differently.
//!
//! The primary consumer is the differential attribution pass of the
//! `exrquy-verify` crate: replaying a diverging query with rules disabled
//! one at a time names the single rewrite responsible for a divergence.

use std::fmt;

/// Every named rewrite rule, in bit order. `"rebuild"` (the identity
/// reconstruction of an operator over rewritten children) is *not* a rule
/// and cannot be disabled.
pub const RULE_NAMES: &[&str] = &[
    "cda-bypass-rownum",
    "cda-bypass-rowid",
    "cda-bypass-attach",
    "weaken-criteria",
    "weaken-rownum-to-rowid",
    "project-prune",
    "project-collapse",
    "project-identity",
    "merge-steps",
    "distinct-disjoint-union",
    "union-align-schema",
    "join-elim-key-domain",
    "join-self-key",
    "cost-join-reorder",
];

/// A set of named rewrite rules, packed into one word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RuleSet(u32);

impl RuleSet {
    /// The empty set (nothing disabled).
    pub const fn empty() -> Self {
        RuleSet(0)
    }

    /// Every known rule.
    pub fn all() -> Self {
        RuleSet((1u32 << RULE_NAMES.len()) - 1)
    }

    /// Bit index of `rule`, when it names a known rule.
    fn index(rule: &str) -> Option<usize> {
        RULE_NAMES.iter().position(|&r| r == rule)
    }

    /// Is `rule` a known rule name?
    pub fn is_known(rule: &str) -> bool {
        Self::index(rule).is_some()
    }

    /// True when no rule is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of rules in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Add `rule`; returns `false` (set unchanged) for unknown names.
    pub fn insert(&mut self, rule: &str) -> bool {
        match Self::index(rule) {
            Some(i) => {
                self.0 |= 1 << i;
                true
            }
            None => false,
        }
    }

    /// Remove `rule` (no-op for unknown names).
    pub fn remove(&mut self, rule: &str) {
        if let Some(i) = Self::index(rule) {
            self.0 &= !(1 << i);
        }
    }

    /// `self` plus `rule`. Panics on unknown names — use
    /// [`RuleSet::from_names`] for untrusted input.
    pub fn with(mut self, rule: &str) -> Self {
        assert!(self.insert(rule), "unknown rewrite rule `{rule}`");
        self
    }

    /// Set union.
    pub fn union(self, other: RuleSet) -> Self {
        RuleSet(self.0 | other.0)
    }

    /// Does the set contain `rule`? Unknown names are never contained.
    pub fn contains(self, rule: &str) -> bool {
        Self::index(rule).is_some_and(|i| self.0 & (1 << i) != 0)
    }

    /// The rules in the set, in bit order.
    pub fn iter(self) -> impl Iterator<Item = &'static str> {
        RULE_NAMES
            .iter()
            .enumerate()
            .filter(move |(i, _)| self.0 & (1 << i) != 0)
            .map(|(_, &r)| r)
    }

    /// Build a set from rule names, rejecting unknown ones with a message
    /// listing the valid names.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut set = RuleSet::empty();
        for name in names {
            if !set.insert(name) {
                return Err(format!(
                    "unknown rewrite rule `{name}` (known rules: {})",
                    RULE_NAMES.join(", ")
                ));
            }
        }
        Ok(set)
    }
}

impl fmt::Display for RuleSet {
    /// `{a, b}` in bit order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, rule) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{rule}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_iter() {
        let mut s = RuleSet::empty();
        assert!(s.is_empty());
        assert!(s.insert("merge-steps"));
        assert!(s.insert("weaken-criteria"));
        assert!(!s.insert("no-such-rule"));
        assert!(s.contains("merge-steps"));
        assert!(s.contains("weaken-criteria"));
        assert!(!s.contains("project-prune"));
        assert!(!s.contains("no-such-rule"));
        assert_eq!(s.len(), 2);
        // Iteration is in bit order, i.e. RULE_NAMES order.
        let listed: Vec<_> = s.iter().collect();
        assert_eq!(listed, vec!["weaken-criteria", "merge-steps"]);
        s.remove("merge-steps");
        assert!(!s.contains("merge-steps"));
    }

    #[test]
    fn all_covers_every_name_and_hashes_distinctly() {
        let all = RuleSet::all();
        assert_eq!(all.len(), RULE_NAMES.len());
        for r in RULE_NAMES {
            assert!(all.contains(r), "{r} missing from RuleSet::all()");
            assert!(RuleSet::is_known(r));
        }
        // Distinct sets are distinct values (the plan cache relies on it).
        assert_ne!(RuleSet::empty().with("merge-steps"), RuleSet::empty());
        assert_ne!(
            RuleSet::empty().with("merge-steps"),
            RuleSet::empty().with("project-prune")
        );
    }

    #[test]
    fn from_names_rejects_unknown() {
        let ok = RuleSet::from_names(["merge-steps", "project-prune"]).unwrap();
        assert_eq!(ok.len(), 2);
        let err = RuleSet::from_names(["merge-steps", "bogus"]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("merge-steps"), "{err}");
    }

    #[test]
    fn every_perturbable_rule_is_a_rule() {
        for rule in exrquy_diag::failpoint::PERTURBABLE_RULES {
            assert!(
                RuleSet::is_known(rule),
                "rule-perturb accepts unknown `{rule}`"
            );
        }
    }

    #[test]
    fn display_lists_rules() {
        let s = RuleSet::empty().with("merge-steps").with("project-prune");
        assert_eq!(s.to_string(), "{project-prune, merge-steps}");
    }
}
