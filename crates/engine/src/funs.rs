//! Row-level function evaluation ([`FunKind`] semantics).
//!
//! Comparisons follow XQuery's dynamic rules for schema-less data: if
//! either operand is numeric, the other is promoted numerically (untyped
//! attribute/text values arrive as strings); otherwise strings compare
//! lexically and booleans by value. Arithmetic promotes to double unless
//! both operands are integers and the operation is closed over integers.

use crate::item::Item;
use exrquy_algebra::FunKind;
use exrquy_diag::ErrorCode;
use exrquy_xml::atomize;
use exrquy_xml::NodeRead;
use std::cmp::Ordering;

/// Dynamic-type error (e.g. arithmetic on a non-numeric string), tagged
/// with its W3C error code.
#[derive(Debug, Clone)]
pub struct DynError {
    pub code: ErrorCode,
    pub message: String,
}

impl DynError {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        DynError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dynamic error: {}", self.message)
    }
}

impl std::error::Error for DynError {}

/// Compare two atomic items under XQuery value-comparison rules.
/// Returns `None` when the values are incomparable (which general
/// comparison treats as `false`).
pub fn compare(a: &Item, b: &Item) -> Option<Ordering> {
    match (a, b) {
        (Item::Bool(x), Item::Bool(y)) => Some(x.cmp(y)),
        (Item::Str(x), Item::Str(y)) => Some(x.as_ref().cmp(y.as_ref())),
        _ => {
            // Numeric if either side is numeric (untyped promotion).
            let xn = a.as_number();
            let yn = b.as_number();
            match (xn, yn) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                (Some(x), None) => b.as_number_promoting().and_then(|y| x.partial_cmp(&y)),
                (None, Some(y)) => a.as_number_promoting().and_then(|x| x.partial_cmp(&y)),
                (None, None) => None,
            }
        }
    }
}

/// Outcome of a comparison function.
pub fn compare_with(kind: FunKind, a: &Item, b: &Item) -> bool {
    let Some(ord) = compare(a, b) else {
        return false;
    };
    match kind {
        FunKind::Eq => ord == Ordering::Equal,
        FunKind::Ne => ord != Ordering::Equal,
        FunKind::Lt => ord == Ordering::Less,
        FunKind::Le => ord != Ordering::Greater,
        FunKind::Gt => ord == Ordering::Greater,
        FunKind::Ge => ord != Ordering::Less,
        // Invariant: reachable only from Eq..Ge dispatch sites (apply and
        // the theta-join), never from user input — a trip here is a bug in
        // the engine itself, so a panic is the right failure mode.
        other => panic!("compare_with called with non-comparison {other:?}"),
    }
}

fn num(i: &Item) -> Result<f64, DynError> {
    i.as_number_promoting().ok_or_else(|| {
        DynError::new(
            ErrorCode::FORG0001,
            format!("cannot treat `{i}` as a number"),
        )
    })
}

fn both_int(a: &Item, b: &Item) -> Option<(i64, i64)> {
    match (a, b) {
        (Item::Int(x), Item::Int(y)) => Some((*x, *y)),
        _ => None,
    }
}

/// Atomize: nodes become their (untyped) string value, copied out of
/// the document's text arena into a string item; atomics pass.
pub fn atomize_item<R: NodeRead + ?Sized>(nodes: &R, i: &Item) -> Item {
    match i {
        Item::Node(n) => Item::str(&atomize::string_value(nodes.doc_of(*n), n.pre)),
        other => other.clone(),
    }
}

/// `i` atomized and promoted to a number as by
/// [`Item::as_number_promoting`], without building a string item.
pub(crate) fn number_of<R: NodeRead + ?Sized>(nodes: &R, i: &Item) -> Option<f64> {
    match i {
        Item::Node(n) => atomize::parse_number(&atomize::string_value(nodes.doc_of(*n), n.pre)),
        other => other.as_number_promoting(),
    }
}

/// Evaluate `kind` over `args` (already atomized where the compiler
/// requires it).
///
/// Arity: the compiler emits `Op::Fun` with exactly the argument count
/// each `FunKind` requires, so the `args[0]`/`args[1]`/`args[2]` indexing
/// below is an engine invariant, not a user-reachable panic.
pub fn apply<R: NodeRead + ?Sized>(
    nodes: &R,
    kind: FunKind,
    args: &[Item],
) -> Result<Item, DynError> {
    use FunKind::*;
    Ok(match kind {
        Add | Sub | Mul | Div | IDiv | Mod => {
            let (a, b) = (&args[0], &args[1]);
            if let (Some((x, y)), true) = (both_int(a, b), matches!(kind, Add | Sub | Mul)) {
                match kind {
                    Add => Item::Int(x.wrapping_add(y)),
                    Sub => Item::Int(x.wrapping_sub(y)),
                    Mul => Item::Int(x.wrapping_mul(y)),
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (num(a)?, num(b)?);
                match kind {
                    Add => Item::Dbl(x + y),
                    Sub => Item::Dbl(x - y),
                    Mul => Item::Dbl(x * y),
                    Div => Item::Dbl(x / y),
                    IDiv => {
                        if y == 0.0 {
                            return Err(DynError::new(
                                ErrorCode::FOAR0001,
                                "integer division by zero",
                            ));
                        }
                        Item::Int((x / y).trunc() as i64)
                    }
                    Mod => {
                        if let Some((xi, yi)) = both_int(&args[0], &args[1]) {
                            if yi == 0 {
                                return Err(DynError::new(ErrorCode::FOAR0001, "modulo by zero"));
                            }
                            Item::Int(xi % yi)
                        } else {
                            Item::Dbl(x % y)
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
        UnaryMinus => match &args[0] {
            Item::Int(i) => Item::Int(-i),
            other => Item::Dbl(-num(other)?),
        },
        Eq | Ne | Lt | Le | Gt | Ge => Item::Bool(compare_with(kind, &args[0], &args[1])),
        And => Item::Bool(args[0].ebv() && args[1].ebv()),
        Or => Item::Bool(args[0].ebv() || args[1].ebv()),
        Not => Item::Bool(!args[0].ebv()),
        Concat => {
            let mut s = String::new();
            for a in args {
                s.push_str(&a.to_xq_string());
            }
            Item::str(&s)
        }
        Contains => Item::Bool(args[0].to_xq_string().contains(&args[1].to_xq_string())),
        StartsWith => Item::Bool(args[0].to_xq_string().starts_with(&args[1].to_xq_string())),
        StringLength => Item::Int(args[0].to_xq_string().chars().count() as i64),
        Substring2 => {
            let s = args[0].to_xq_string();
            let start = (num(&args[1])?.round() as i64 - 1).max(0) as usize;
            Item::str(&s.chars().skip(start).collect::<String>())
        }
        Substring3 => {
            let s = args[0].to_xq_string();
            let startf = num(&args[1])?.round() as i64;
            let lenf = num(&args[2])?.round() as i64;
            let start = (startf - 1).max(0) as usize;
            let end = (startf - 1 + lenf).max(0) as usize;
            Item::str(
                &s.chars()
                    .enumerate()
                    .filter(|(i, _)| *i >= start && *i < end)
                    .map(|(_, c)| c)
                    .collect::<String>(),
            )
        }
        NormalizeSpace => Item::str(
            &args[0]
                .to_xq_string()
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" "),
        ),
        SubstringBefore => {
            let s = args[0].to_xq_string();
            let sep = args[1].to_xq_string();
            match s.find(&sep) {
                Some(i) if !sep.is_empty() => Item::str(&s[..i]),
                _ => Item::str(""),
            }
        }
        SubstringAfter => {
            let s = args[0].to_xq_string();
            let sep = args[1].to_xq_string();
            match s.find(&sep) {
                Some(i) if !sep.is_empty() => Item::str(&s[i + sep.len()..]),
                _ => Item::str(""),
            }
        }
        EndsWith => Item::Bool(args[0].to_xq_string().ends_with(&args[1].to_xq_string())),
        Abs => Item::Dbl(num(&args[0])?.abs()),
        StringJoinSep => {
            // Handled at the aggregation level; as a row function it joins
            // exactly two pre-joined halves (unused by the compiler today).
            let mut s = args[0].to_xq_string();
            s.push_str(&args[1].to_xq_string());
            Item::str(&s)
        }
        UpperCase => Item::str(&args[0].to_xq_string().to_uppercase()),
        LowerCase => Item::str(&args[0].to_xq_string().to_lowercase()),
        Translate => {
            let s = args[0].to_xq_string();
            let from: Vec<char> = args[1].to_xq_string().chars().collect();
            let to: Vec<char> = args[2].to_xq_string().chars().collect();
            Item::str(
                &s.chars()
                    .filter_map(|c| match from.iter().position(|&f| f == c) {
                        Some(i) => to.get(i).copied(),
                        None => Some(c),
                    })
                    .collect::<String>(),
            )
        }
        Atomize => atomize_item(nodes, &args[0]),
        ToNum => Item::Dbl(number_of(nodes, &args[0]).unwrap_or(f64::NAN)),
        ToStr => match atomize_item(nodes, &args[0]) {
            s @ Item::Str(_) => s,
            other => Item::str(&other.to_xq_string()),
        },
        NameOf => match &args[0] {
            Item::Node(n) => {
                let doc = nodes.doc_of(*n);
                let name = doc.name(n.pre);
                if name.is_some() {
                    Item::str(nodes.resolve_name(name))
                } else {
                    Item::str("")
                }
            }
            _ => {
                return Err(DynError::new(
                    ErrorCode::XPTY0004,
                    "fn:local-name on non-node",
                ))
            }
        },
        ItemEbv => Item::Bool(args[0].ebv()),
        NodeBefore | NodeAfter | NodeIs => match (&args[0], &args[1]) {
            (Item::Node(a), Item::Node(b)) => Item::Bool(match kind {
                NodeBefore => a < b,
                NodeAfter => a > b,
                _ => a == b,
            }),
            _ => {
                return Err(DynError::new(
                    ErrorCode::XPTY0004,
                    "node comparison on non-nodes",
                ))
            }
        },
        Round => Item::Dbl(num(&args[0])?.round()),
        Floor => Item::Dbl(num(&args[0])?.floor()),
        Ceiling => Item::Dbl(num(&args[0])?.ceil()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_xml::Catalog;

    fn store() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn arithmetic_integer_and_double() {
        let s = store();
        assert_eq!(
            apply(&s, FunKind::Add, &[Item::Int(2), Item::Int(3)]).unwrap(),
            Item::Int(5)
        );
        assert_eq!(
            apply(&s, FunKind::Mul, &[Item::Int(5000), Item::str("2.5")]).unwrap(),
            Item::Dbl(12500.0)
        );
        assert!(apply(&s, FunKind::Div, &[Item::Int(1), Item::Int(0)])
            .unwrap()
            .as_number()
            .unwrap()
            .is_infinite());
        assert!(apply(&s, FunKind::IDiv, &[Item::Int(1), Item::Int(0)]).is_err());
        assert_eq!(
            apply(&s, FunKind::Mod, &[Item::Int(7), Item::Int(3)]).unwrap(),
            Item::Int(1)
        );
    }

    #[test]
    fn comparisons_promote_untyped() {
        // `@income > 5000 * $i` style: string attribute value vs number.
        assert!(compare_with(
            FunKind::Gt,
            &Item::str("68000"),
            &Item::Dbl(62500.0)
        ));
        assert!(!compare_with(
            FunKind::Gt,
            &Item::str("not-a-number"),
            &Item::Dbl(1.0)
        ));
        assert!(compare_with(FunKind::Eq, &Item::str("a"), &Item::str("a")));
        assert!(compare_with(FunKind::Le, &Item::Int(2), &Item::Dbl(2.0)));
    }

    #[test]
    fn string_functions() {
        let s = store();
        assert_eq!(
            apply(
                &s,
                FunKind::Contains,
                &[Item::str("gold ring"), Item::str("gold")]
            )
            .unwrap(),
            Item::Bool(true)
        );
        assert_eq!(
            apply(
                &s,
                FunKind::Substring3,
                &[Item::str("hello"), Item::Int(2), Item::Int(3)]
            )
            .unwrap(),
            Item::str("ell")
        );
        assert_eq!(
            apply(&s, FunKind::StringLength, &[Item::str("héllo")]).unwrap(),
            Item::Int(5)
        );
    }

    #[test]
    fn atomize_and_casts() {
        let mut b = Catalog::builder();
        let root = b.load_str("t.xml", "<a>4<b>2</b></a>").unwrap();
        let s = b.build();
        let elem = Item::Node(exrquy_xml::NodeId::new(root.frag, 1));
        assert_eq!(atomize_item(&s, &elem), Item::str("42"));
        assert_eq!(
            apply(&s, FunKind::ToNum, std::slice::from_ref(&elem)).unwrap(),
            Item::Dbl(42.0)
        );
        assert_eq!(apply(&s, FunKind::NameOf, &[elem]).unwrap(), Item::str("a"));
    }

    #[test]
    fn node_order_comparisons() {
        let s = store();
        let a = Item::Node(exrquy_xml::NodeId::new(0, 1));
        let b = Item::Node(exrquy_xml::NodeId::new(0, 3));
        assert_eq!(
            apply(&s, FunKind::NodeBefore, &[a.clone(), b.clone()]).unwrap(),
            Item::Bool(true)
        );
        assert_eq!(
            apply(&s, FunKind::NodeIs, &[a.clone(), a.clone()]).unwrap(),
            Item::Bool(true)
        );
        assert!(apply(&s, FunKind::NodeIs, &[a, Item::Int(1)]).is_err());
    }
}
