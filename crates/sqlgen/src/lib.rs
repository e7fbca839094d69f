//! SQL:1999 emission for algebra plans — the "XQuery on SQL Hosts"
//! mapping \[Grust, Sakr, Teubner, VLDB 2004\] the paper builds on.
//!
//! The paper's Table 1 stresses that the algebra dialect was "guided by
//! the processing capabilities of SQL-centric relational database
//! kernels": in particular, `% a:⟨b⟩‖c` *exactly mimics*
//! `ROW_NUMBER() OVER (PARTITION BY c ORDER BY b) AS a` of the SQL:1999
//! OLAP amendment, and `# a` corresponds to a free
//! `ROW_NUMBER() OVER ()` (or the kernel's hidden ROWID). This crate
//! makes that mapping concrete by translating any plan DAG into one SQL
//! query: a `WITH` chain with one common table expression per operator.
//!
//! ## Target schema
//!
//! The encoded documents (paper Fig. 5) are assumed shredded into
//!
//! ```sql
//! CREATE TABLE doc_nodes (
//!   url    TEXT,     -- fn:doc() URL
//!   pre    INTEGER,  -- preorder rank (the node identifier)
//!   size   INTEGER,  -- subtree size
//!   level  INTEGER,  -- depth
//!   parent INTEGER,  -- preorder rank of the parent (NULL for roots)
//!   kind   TEXT,     -- 'doc' | 'elem' | 'attr' | 'text' | 'comment' | 'pi'
//!   name   TEXT,     -- tag / attribute name (NULL otherwise)
//!   value  TEXT      -- text / attribute content (NULL otherwise)
//! );
//! ```
//!
//! XPath steps translate to the pre/size/level predicates of staircase
//! join \[12\] over this table. A handful of XQuery-specific scalar
//! operations (node string value, node construction) emit calls to
//! documented UDFs (`xq_string_value`, `xq_element`, …) — exactly the
//! pieces MonetDB/XQuery also realized with dedicated kernel extensions.
//!
//! The emitted SQL is *not executed* in this repository (our engine
//! evaluates plans natively); the generator is validated structurally by
//! its test suite and serves as the bridge documentation between the
//! plans in `exrquy-algebra` and a SQL host.

use exrquy_algebra::{AValue, AggrKind, Col, Dag, FunKind, Op, OpId, SortKey};
use exrquy_xml::{Axis, NameId, NamePool, NodeTest};
use std::fmt::Write;
use std::sync::Arc;

/// Options for SQL emission.
#[derive(Debug, Clone)]
pub struct SqlOptions {
    /// Interned node-test names (the plan's frozen pool snapshot, shared —
    /// not copied — with the prepared plan); ids beyond the pool render as
    /// `name_<id>`.
    pub names: Arc<NamePool>,
    /// Pretty line breaks between CTEs (default on).
    pub pretty: bool,
}

impl Default for SqlOptions {
    fn default() -> Self {
        SqlOptions {
            names: Arc::new(NamePool::new()),
            pretty: true,
        }
    }
}

impl SqlOptions {
    fn resolve(&self, id: NameId) -> String {
        self.names
            .get(id)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("name_{}", id.0))
    }
}

/// Translate the plan rooted at `root` into one SQL query.
pub fn to_sql(dag: &Dag, root: OpId, opts: &SqlOptions) -> String {
    let order = dag.topo_order(root);
    let mut ctes: Vec<(String, String)> = Vec::new();
    for id in &order {
        let body = emit_op(dag, *id, opts);
        ctes.push((cte_name(*id), body));
    }
    let sep = if opts.pretty { ",\n  " } else { ", " };
    let mut sql = String::from("WITH\n  ");
    sql.push_str(
        &ctes
            .iter()
            .map(|(n, b)| format!("{n} AS ({b})"))
            .collect::<Vec<_>>()
            .join(sep),
    );
    let _ = write!(sql, "\nSELECT * FROM {} ORDER BY pos", cte_name(root));
    sql
}

fn cte_name(id: OpId) -> String {
    format!("op{}", id.0)
}

fn ident(c: Col) -> String {
    // Col names are already valid lowercase identifiers (iter, pos, c42…).
    c.name()
}

fn literal(v: &AValue) -> String {
    match v {
        AValue::Int(i) => i.to_string(),
        AValue::Dbl(b) => {
            let f = f64::from_bits(*b);
            if f.is_finite() {
                format!("{f:?}")
            } else {
                "NULL /* non-finite */".into()
            }
        }
        AValue::Str(s) => format!("'{}'", s.replace('\'', "''")),
        AValue::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
    }
}

fn order_by(order: &[SortKey]) -> String {
    order
        .iter()
        .map(|k| {
            if k.desc {
                format!("{} DESC", ident(k.col))
            } else {
                ident(k.col)
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn fun_expr(kind: FunKind, args: &[Col]) -> String {
    let a = |i: usize| ident(args[i]);
    match kind {
        FunKind::Add => format!("({} + {})", a(0), a(1)),
        FunKind::Sub => format!("({} - {})", a(0), a(1)),
        FunKind::Mul => format!("({} * {})", a(0), a(1)),
        FunKind::Div => format!("({} / {})", a(0), a(1)),
        FunKind::IDiv => format!("CAST({} / {} AS INTEGER)", a(0), a(1)),
        FunKind::Mod => format!("MOD({}, {})", a(0), a(1)),
        FunKind::UnaryMinus => format!("(-{})", a(0)),
        FunKind::Eq => format!("({} = {})", a(0), a(1)),
        FunKind::Ne => format!("({} <> {})", a(0), a(1)),
        FunKind::Lt => format!("({} < {})", a(0), a(1)),
        FunKind::Le => format!("({} <= {})", a(0), a(1)),
        FunKind::Gt => format!("({} > {})", a(0), a(1)),
        FunKind::Ge => format!("({} >= {})", a(0), a(1)),
        FunKind::And => format!("({} AND {})", a(0), a(1)),
        FunKind::Or => format!("({} OR {})", a(0), a(1)),
        FunKind::Not => format!("(NOT {})", a(0)),
        FunKind::Concat => {
            let parts: Vec<String> = args.iter().map(|&c| ident(c)).collect();
            format!("({})", parts.join(" || "))
        }
        FunKind::Contains => format!("(POSITION({} IN {}) > 0)", a(1), a(0)),
        FunKind::StartsWith => {
            format!(
                "(SUBSTRING({} FROM 1 FOR CHAR_LENGTH({})) = {})",
                a(0),
                a(1),
                a(1)
            )
        }
        FunKind::EndsWith => format!("xq_ends_with({}, {})", a(0), a(1)),
        FunKind::StringLength => format!("CHAR_LENGTH({})", a(0)),
        FunKind::Substring2 => format!("SUBSTRING({} FROM {})", a(0), a(1)),
        FunKind::Substring3 => format!("SUBSTRING({} FROM {} FOR {})", a(0), a(1), a(2)),
        FunKind::UpperCase => format!("UPPER({})", a(0)),
        FunKind::LowerCase => format!("LOWER({})", a(0)),
        FunKind::Translate => format!("TRANSLATE({}, {}, {})", a(0), a(1), a(2)),
        FunKind::NormalizeSpace => format!("xq_normalize_space({})", a(0)),
        FunKind::SubstringBefore => format!("xq_substring_before({}, {})", a(0), a(1)),
        FunKind::SubstringAfter => format!("xq_substring_after({}, {})", a(0), a(1)),
        FunKind::StringJoinSep => format!("({} || {})", a(0), a(1)),
        FunKind::Atomize => format!("xq_string_value({})", a(0)),
        FunKind::ToNum => format!("CAST(xq_string_value({}) AS DOUBLE PRECISION)", a(0)),
        FunKind::ToStr => format!("CAST({} AS TEXT)", a(0)),
        FunKind::NameOf => format!("xq_node_name({})", a(0)),
        FunKind::ItemEbv => format!("xq_ebv({})", a(0)),
        FunKind::NodeBefore => format!("({} < {})", a(0), a(1)),
        FunKind::NodeAfter => format!("({} > {})", a(0), a(1)),
        FunKind::NodeIs => format!("({} = {})", a(0), a(1)),
        FunKind::Round => format!("ROUND({})", a(0)),
        FunKind::Floor => format!("FLOOR({})", a(0)),
        FunKind::Ceiling => format!("CEILING({})", a(0)),
        FunKind::Abs => format!("ABS({})", a(0)),
    }
}

fn aggr_expr(kind: AggrKind, arg: Option<Col>) -> String {
    match (kind, arg) {
        (AggrKind::Count, _) => "COUNT(*)".into(),
        (AggrKind::Sum, Some(a)) => format!("SUM({})", ident(a)),
        (AggrKind::Avg, Some(a)) => format!("AVG({})", ident(a)),
        (AggrKind::Max, Some(a)) => format!("MAX({})", ident(a)),
        (AggrKind::Min, Some(a)) => format!("MIN({})", ident(a)),
        (AggrKind::Any, Some(a)) => format!("BOOL_OR({})", ident(a)),
        (AggrKind::All, Some(a)) => format!("BOOL_AND({})", ident(a)),
        (AggrKind::Ebv, Some(a)) => format!("xq_ebv_agg({})", ident(a)),
        (AggrKind::StrJoin, Some(a)) => {
            format!("STRING_AGG({}, ' ' ORDER BY pos)", ident(a))
        }
        (k, None) => format!("/* aggregate {k:?} without argument */ NULL"),
    }
}

/// Axis → SQL predicate between context node `v` and candidate `d`
/// (columns of two `doc_nodes` aliases). Pre/size/level arithmetic of
/// staircase join \[12\].
fn axis_predicate(axis: Axis) -> &'static str {
    match axis {
        Axis::Child => "d.parent = v.pre",
        Axis::Descendant => "d.pre > v.pre AND d.pre <= v.pre + v.size",
        Axis::DescendantOrSelf => "d.pre >= v.pre AND d.pre <= v.pre + v.size",
        Axis::SelfAxis => "d.pre = v.pre",
        Axis::Attribute => "d.parent = v.pre",
        Axis::Parent => "v.parent = d.pre",
        Axis::Ancestor => "v.pre > d.pre AND v.pre <= d.pre + d.size",
        Axis::AncestorOrSelf => "v.pre >= d.pre AND v.pre <= d.pre + d.size",
        Axis::FollowingSibling => "d.parent = v.parent AND d.pre > v.pre",
        Axis::PrecedingSibling => "d.parent = v.parent AND d.pre < v.pre",
        Axis::Following => "d.pre > v.pre + v.size",
        Axis::Preceding => "d.pre + d.size < v.pre",
    }
}

fn test_predicate(axis: Axis, test: NodeTest, opts: &SqlOptions) -> String {
    let principal = if axis == Axis::Attribute {
        "attr"
    } else {
        "elem"
    };
    match test {
        NodeTest::AnyKind => {
            if axis == Axis::Attribute {
                "d.kind = 'attr'".into()
            } else {
                "d.kind <> 'attr'".into()
            }
        }
        NodeTest::Wildcard => format!("d.kind = '{principal}'"),
        NodeTest::Name(n) => format!(
            "d.kind = '{principal}' AND d.name = '{}'",
            opts.resolve(n).replace('\'', "''")
        ),
        NodeTest::Text => "d.kind = 'text'".into(),
        NodeTest::Comment => "d.kind = 'comment'".into(),
        NodeTest::Pi(None) => "d.kind = 'pi'".into(),
        NodeTest::Pi(Some(t)) => format!(
            "d.kind = 'pi' AND d.name = '{}'",
            opts.resolve(t).replace('\'', "''")
        ),
        NodeTest::DocumentNode => "d.kind = 'doc'".into(),
        NodeTest::Element => "d.kind = 'elem'".into(),
    }
}

fn select_list(cols: &[Col], from: &str) -> String {
    cols.iter()
        .map(|c| format!("{from}.{}", ident(*c)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn emit_op(dag: &Dag, id: OpId, opts: &SqlOptions) -> String {
    let op = dag.op(id);
    match op {
        Op::Lit { cols, rows } => {
            if rows.is_empty() {
                let list = cols
                    .iter()
                    .map(|c| format!("NULL AS {}", ident(*c)))
                    .collect::<Vec<_>>()
                    .join(", ");
                return format!("SELECT {list} WHERE 1 = 0");
            }
            rows.iter()
                .map(|row| {
                    let list = row
                        .iter()
                        .zip(cols)
                        .map(|(v, c)| format!("{} AS {}", literal(v), ident(*c)))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("SELECT {list}")
                })
                .collect::<Vec<_>>()
                .join(" UNION ALL ")
        }
        Op::Doc { url } => format!(
            "SELECT d.pre AS item FROM doc_nodes d \
             WHERE d.url = '{}' AND d.kind = 'doc'",
            url.replace('\'', "''")
        ),
        Op::Project { input, cols } => {
            let list = cols
                .iter()
                .map(|(new, src)| {
                    if new == src {
                        ident(*new)
                    } else {
                        format!("{} AS {}", ident(*src), ident(*new))
                    }
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!("SELECT {list} FROM {}", cte_name(*input))
        }
        Op::Select { input, col } => {
            format!("SELECT * FROM {} WHERE {}", cte_name(*input), ident(*col))
        }
        Op::Sort { input, keys } => {
            let order = keys
                .iter()
                .map(|k| ident(*k))
                .collect::<Vec<_>>()
                .join(", ");
            format!("SELECT * FROM {} ORDER BY {order}", cte_name(*input))
        }
        Op::RowNum {
            input,
            new,
            order,
            part,
        } => {
            // The paper's % : exactly ROW_NUMBER() OVER (…).
            let mut window = String::new();
            if let Some(p) = part {
                let _ = write!(window, "PARTITION BY {}", ident(*p));
            }
            if !order.is_empty() {
                if !window.is_empty() {
                    window.push(' ');
                }
                let _ = write!(window, "ORDER BY {}", order_by(order));
            }
            format!(
                "SELECT *, ROW_NUMBER() OVER ({window}) AS {} FROM {}",
                ident(*new),
                cte_name(*input)
            )
        }
        Op::RowId { input, new } => format!(
            // The paper's # : arbitrary unique numbers — the hidden ROWID
            // or an order-free ROW_NUMBER.
            "SELECT *, ROW_NUMBER() OVER () AS {} FROM {}",
            ident(*new),
            cte_name(*input)
        ),
        Op::Attach { input, col, value } => format!(
            "SELECT *, {} AS {} FROM {}",
            literal(value),
            ident(*col),
            cte_name(*input)
        ),
        Op::Fun {
            input,
            new,
            kind,
            args,
        } => format!(
            "SELECT *, {} AS {} FROM {}",
            fun_expr(*kind, args),
            ident(*new),
            cte_name(*input)
        ),
        Op::Aggr {
            input,
            kind,
            new,
            arg,
            part,
        } => match part {
            Some(p) => format!(
                "SELECT {}, {} AS {} FROM {} GROUP BY {}",
                ident(*p),
                aggr_expr(*kind, *arg),
                ident(*new),
                cte_name(*input),
                ident(*p)
            ),
            None => format!(
                "SELECT {} AS {} FROM {}",
                aggr_expr(*kind, *arg),
                ident(*new),
                cte_name(*input)
            ),
        },
        Op::Distinct { input } => format!("SELECT DISTINCT * FROM {}", cte_name(*input)),
        Op::Step { input, axis, test } => {
            // Staircase join over the shredded document: join the context
            // items back to doc_nodes for pre/size/parent arithmetic.
            format!(
                "SELECT DISTINCT c.iter, d.pre AS item \
                 FROM {} c \
                 JOIN doc_nodes v ON v.pre = c.item \
                 JOIN doc_nodes d ON d.url = v.url AND {} \
                 WHERE {}",
                cte_name(*input),
                axis_predicate(*axis),
                test_predicate(*axis, *test, opts)
            )
        }
        Op::Cross { l, r } => format!(
            "SELECT {}, {} FROM {} l CROSS JOIN {} r",
            select_list(dag.schema(*l), "l"),
            select_list(dag.schema(*r), "r"),
            cte_name(*l),
            cte_name(*r)
        ),
        Op::EquiJoin { l, r, lcol, rcol } => format!(
            "SELECT {}, {} FROM {} l JOIN {} r ON l.{} = r.{}",
            select_list(dag.schema(*l), "l"),
            select_list(dag.schema(*r), "r"),
            cte_name(*l),
            cte_name(*r),
            ident(*lcol),
            ident(*rcol)
        ),
        Op::ThetaJoin { l, r, pred } => {
            let on = pred
                .iter()
                .map(|(lc, k, rc)| {
                    let sym = match k {
                        FunKind::Eq => "=",
                        FunKind::Ne => "<>",
                        FunKind::Lt => "<",
                        FunKind::Le => "<=",
                        FunKind::Gt => ">",
                        FunKind::Ge => ">=",
                        other => panic!("non-comparison theta predicate {other:?}"),
                    };
                    format!("l.{} {} r.{}", ident(*lc), sym, ident(*rc))
                })
                .collect::<Vec<_>>()
                .join(" AND ");
            format!(
                "SELECT {}, {} FROM {} l JOIN {} r ON {}",
                select_list(dag.schema(*l), "l"),
                select_list(dag.schema(*r), "r"),
                cte_name(*l),
                cte_name(*r),
                on
            )
        }
        Op::Union { l, r } => {
            // ∪̇ is bag append: align column order explicitly.
            let cols = dag.schema(*l);
            format!(
                "SELECT {} FROM {} UNION ALL SELECT {} FROM {}",
                cols.iter()
                    .map(|c| ident(*c))
                    .collect::<Vec<_>>()
                    .join(", "),
                cte_name(*l),
                cols.iter()
                    .map(|c| ident(*c))
                    .collect::<Vec<_>>()
                    .join(", "),
                cte_name(*r)
            )
        }
        Op::Difference { l, r, on } => {
            let cond = on
                .iter()
                .map(|(lc, rc)| format!("r.{} = l.{}", ident(*rc), ident(*lc)))
                .collect::<Vec<_>>()
                .join(" AND ");
            format!(
                "SELECT * FROM {} l WHERE NOT EXISTS \
                 (SELECT 1 FROM {} r WHERE {})",
                cte_name(*l),
                cte_name(*r),
                cond
            )
        }
        Op::Range { input, lo, hi, new } => format!(
            // Integer range expansion: generate_series (PostgreSQL) /
            // a recursive CTE on other hosts.
            "SELECT i.*, g.{} FROM {} i \
             CROSS JOIN LATERAL generate_series(i.{}, i.{}) AS g({})",
            ident(*new),
            cte_name(*input),
            ident(*lo),
            ident(*hi),
            ident(*new)
        ),
        Op::Element {
            names,
            content,
            twig,
        } => format!(
            // Node construction is the back-end-specific piece (MonetDB/
            // XQuery used dedicated kernel operators): an aggregate UDF
            // assembling each iteration's content in (slot, pos) order
            // into the element tree the skeleton literal spells.
            "SELECT n.iter, xq_element(n.item, '{twig}', \
             (SELECT xq_content_agg(c.item, c.ord ORDER BY c.ord, c.pos) \
              FROM {content} c WHERE c.iter = n.iter)) AS item \
             FROM {names} n",
            names = cte_name(*names),
            content = cte_name(*content),
        ),
        Op::Attr { names, values } => format!(
            "SELECT n.iter, xq_attribute(n.item, v.item) AS item \
             FROM {} n JOIN {} v ON v.iter = n.iter",
            cte_name(*names),
            cte_name(*values)
        ),
        Op::TextNode { content } => format!(
            "SELECT iter, xq_text(item) AS item FROM {}",
            cte_name(*content)
        ),
        Op::Serialize { input } => format!("SELECT * FROM {}", cte_name(*input)),
        Op::Fanout { lo, hi, .. } => format!(
            // One shard of the collection scan: document roots of the
            // shard's fragment range, pos = the global collection rank.
            "SELECT d.frag + 1 AS pos, d.pre AS item FROM doc_nodes d \
             WHERE d.kind = 'doc' AND d.frag >= {lo} AND d.frag < {hi}"
        ),
        Op::ShardUnion { parts } => {
            // ∪̂ is an n-ary bag append: align column order explicitly.
            let cols = dag.schema(parts[0]);
            let list = cols
                .iter()
                .map(|c| ident(*c))
                .collect::<Vec<_>>()
                .join(", ");
            parts
                .iter()
                .map(|p| format!("SELECT {list} FROM {}", cte_name(*p)))
                .collect::<Vec<_>>()
                .join(" UNION ALL ")
        }
    }
}

#[cfg(test)]
mod tests;
