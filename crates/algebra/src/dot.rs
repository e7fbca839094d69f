//! Graphviz DOT rendering of plan DAGs — for eyeballing the counterparts
//! of the paper's Figures 6, 9 and 10.

use crate::col::Col;
use crate::dag::{Dag, OpId};
use crate::op::Op;
use std::fmt::Write;

/// Resolve a [`NodeTest`](exrquy_xml::NodeTest) to surface syntax using a
/// name-resolution function (e.g. backed by the session's
/// [`NamePool`](exrquy_xml::NamePool)).
pub fn test_to_string(
    test: &exrquy_xml::NodeTest,
    resolve: &dyn Fn(exrquy_xml::NameId) -> String,
) -> String {
    use exrquy_xml::NodeTest as T;
    match test {
        T::AnyKind => "node()".into(),
        T::Wildcard => "*".into(),
        T::Name(n) => resolve(*n),
        T::Text => "text()".into(),
        T::Comment => "comment()".into(),
        T::Pi(None) => "processing-instruction()".into(),
        T::Pi(Some(t)) => format!("processing-instruction({})", resolve(*t)),
        T::DocumentNode => "document-node()".into(),
        T::Element => "element()".into(),
    }
}

/// Like [`op_label`] but resolving node-test names through `resolve`.
pub fn op_label_named(op: &Op, resolve: &dyn Fn(exrquy_xml::NameId) -> String) -> String {
    match op {
        Op::Step { axis, test, .. } => {
            format!("⬡ {axis}::{}", test_to_string(test, resolve))
        }
        other => op_label(other),
    }
}

/// Like [`to_text`] but resolving node-test names through `resolve`.
pub fn to_text_named(
    dag: &Dag,
    root: OpId,
    resolve: &dyn Fn(exrquy_xml::NameId) -> String,
) -> String {
    let mut out = String::new();
    let mut seen = std::collections::HashSet::new();
    fn rec(
        dag: &Dag,
        id: OpId,
        depth: usize,
        seen: &mut std::collections::HashSet<OpId>,
        resolve: &dyn Fn(exrquy_xml::NameId) -> String,
        out: &mut String,
    ) {
        let _ = write!(
            out,
            "{}{} {}",
            "  ".repeat(depth),
            id,
            op_label_named(dag.op(id), resolve)
        );
        if !seen.insert(id) {
            out.push_str(" (shared)\n");
            return;
        }
        out.push('\n');
        for c in dag.op(id).children() {
            rec(dag, c, depth + 1, seen, resolve, out);
        }
    }
    rec(dag, root, 0, &mut seen, resolve, &mut out);
    out
}

/// Render the plan rooted at `root` as a DOT digraph.
pub fn to_dot(dag: &Dag, root: OpId, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph plan {{");
    let _ = writeln!(
        out,
        "  label={:?}; rankdir=BT; node [shape=box, fontsize=10];",
        title
    );
    for id in dag.topo_order(root) {
        let op = dag.op(id);
        let label = op_label(op);
        let color = match op {
            Op::RowNum { .. } => ", style=filled, fillcolor=\"#f4cccc\"",
            Op::RowId { .. } => ", style=filled, fillcolor=\"#d9ead3\"",
            Op::Step { .. } => ", style=filled, fillcolor=\"#cfe2f3\"",
            _ => "",
        };
        let _ = writeln!(out, "  n{} [label=\"{}\"{}];", id.0, label, color);
        for c in op.children() {
            let _ = writeln!(out, "  n{} -> n{};", c.0, id.0);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Compact one-line rendering of an operator (paper notation).
pub fn op_label(op: &Op) -> String {
    let cols = |cs: &[Col]| cs.iter().map(|c| c.name()).collect::<Vec<_>>().join(",");
    match op {
        Op::Lit { cols: cs, rows } => format!("{} ({} rows)", cols(cs), rows.len()),
        Op::Doc { url } => format!("doc {url}"),
        Op::Project { cols: cs, .. } => {
            let body = cs
                .iter()
                .map(|(n, s)| {
                    if n == s {
                        n.name()
                    } else {
                        format!("{}:{}", n.name(), s.name())
                    }
                })
                .collect::<Vec<_>>()
                .join(",");
            format!("π {body}")
        }
        Op::Select { col, .. } => format!("σ {col}"),
        Op::RowNum {
            new, order, part, ..
        } => {
            let ord = order
                .iter()
                .map(|k| {
                    if k.desc {
                        format!("{}↓", k.col)
                    } else {
                        k.col.name()
                    }
                })
                .collect::<Vec<_>>()
                .join(",");
            match part {
                Some(p) => format!("% {new}:⟨{ord}⟩‖{p}"),
                None => format!("% {new}:⟨{ord}⟩"),
            }
        }
        Op::RowId { new, .. } => format!("# {new}"),
        Op::Attach { col, value, .. } => format!("× {col}|{value}"),
        Op::Fun {
            new, kind, args, ..
        } => format!("{new}:{kind:?}({})", cols(args)),
        Op::Aggr {
            kind, new, part, ..
        } => match part {
            Some(p) => format!("{kind:?} {new}‖{p}"),
            None => format!("{kind:?} {new}"),
        },
        Op::Distinct { .. } => "δ".into(),
        Op::Step { axis, test, .. } => format!("⬡ {axis}::{test:?}"),
        Op::Cross { .. } => "×".into(),
        Op::EquiJoin { lcol, rcol, .. } => format!("⋈ {lcol}={rcol}"),
        Op::ThetaJoin { pred, .. } => {
            let body = pred
                .iter()
                .map(|(l, k, r)| format!("{l}{k:?}{r}"))
                .collect::<Vec<_>>()
                .join("∧");
            format!("⋈θ {body}")
        }
        Op::Union { .. } => "∪̇".into(),
        Op::Difference { on, .. } => {
            let body = on
                .iter()
                .map(|(l, r)| format!("{l}={r}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("\\\\ {body}")
        }
        Op::Element { twig, .. } => format!("elem⟨{}⟩", twig.label()),
        Op::Attr { .. } => "attr".into(),
        Op::TextNode { .. } => "text".into(),
        Op::Range { lo, hi, new, .. } => format!("{new}:range({lo},{hi})"),
        Op::Serialize { .. } => "serialize".into(),
        Op::Sort { keys, .. } => format!("sort ⟨{}⟩", cols(keys)),
        Op::Fanout { shard, lo, hi } => format!("fanout s{shard} [{lo},{hi})"),
        Op::ShardUnion { parts } => format!("∪̂ ({})", parts.len()),
    }
}

/// Pretty-print a plan as an indented tree (shared nodes marked).
pub fn to_text(dag: &Dag, root: OpId) -> String {
    let mut out = String::new();
    let mut seen = std::collections::HashSet::new();
    fn rec(
        dag: &Dag,
        id: OpId,
        depth: usize,
        seen: &mut std::collections::HashSet<OpId>,
        out: &mut String,
    ) {
        let _ = write!(out, "{}{} {}", "  ".repeat(depth), id, op_label(dag.op(id)));
        if !seen.insert(id) {
            out.push_str(" (shared)\n");
            return;
        }
        out.push('\n');
        for c in dag.op(id).children() {
            rec(dag, c, depth + 1, seen, out);
        }
    }
    rec(dag, root, 0, &mut seen, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AValue;

    #[test]
    fn dot_contains_all_reachable_nodes() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        let a = dag.add(Op::Attach {
            input: l,
            col: Col::ITEM,
            value: AValue::str("x"),
        });
        let dot = to_dot(&dag, a, "test");
        assert!(dot.contains("digraph"));
        assert!(dot.contains("n0"));
        assert!(dot.contains("n1"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn text_marks_shared_nodes() {
        let mut dag = Dag::new();
        let l = dag.add(Op::Lit {
            cols: vec![Col::ITER],
            rows: vec![vec![AValue::Int(1)]],
        });
        let a = dag.add(Op::Attach {
            input: l,
            col: Col::ITEM,
            value: AValue::Int(1),
        });
        let c = dag.add(Op::Difference {
            l: a,
            r: a,
            on: vec![(Col::ITER, Col::ITER)],
        });
        let txt = to_text(&dag, c);
        // `a` appears twice, second time marked shared.
        assert_eq!(txt.matches("(shared)").count(), 1);
    }
}
