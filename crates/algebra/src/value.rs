//! Atomic values appearing inside plans (literal tables, attached
//! constants, function arguments).
//!
//! Plan nodes must be hashable for hash-consing, so doubles are stored via
//! their bit pattern ([`AValue::Dbl`] wraps an ordered representation).

use std::fmt;
use std::sync::Arc;

/// An atomic value in a plan literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AValue {
    Int(i64),
    /// Double, stored as bits so the enum is `Eq + Hash`. NaNs with
    /// different payloads compare unequal, which is fine for interning.
    Dbl(u64),
    Str(Arc<str>),
    Bool(bool),
}

impl AValue {
    /// Build a double value.
    pub fn dbl(f: f64) -> Self {
        AValue::Dbl(f.to_bits())
    }

    /// Build a string value.
    pub fn str(s: &str) -> Self {
        AValue::Str(Arc::from(s))
    }
}

impl fmt::Display for AValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AValue::Int(i) => write!(f, "{i}"),
            AValue::Dbl(b) => write!(f, "{}", f64::from_bits(*b)),
            AValue::Str(s) => write!(f, "{s:?}"),
            AValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn doubles_intern_by_bits() {
        let mut set = HashSet::new();
        set.insert(AValue::dbl(1.5));
        assert!(set.contains(&AValue::dbl(1.5)));
        assert!(!set.contains(&AValue::dbl(2.5)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AValue::Int(42).to_string(), "42");
        assert_eq!(AValue::dbl(0.5).to_string(), "0.5");
        assert_eq!(AValue::str("x").to_string(), "\"x\"");
        assert_eq!(AValue::Bool(true).to_string(), "true");
    }
}
