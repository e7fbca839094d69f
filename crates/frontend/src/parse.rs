//! Recursive-descent XQuery parser.
//!
//! The scanner and parser are fused: XQuery cannot be tokenized
//! independently of parse context (direct constructors switch the lexical
//! mode, and keywords such as `and`, `div` or `order` are only reserved in
//! operator position), so the parser reads from a character cursor and
//! applies the appropriate micro-lexer for each position.

use crate::ast::*;
use exrquy_diag::ErrorCode;
use exrquy_xml::parse::decode_entities;
use exrquy_xml::Axis;
use std::borrow::Cow;
use std::fmt;

/// Default expression-nesting ceiling. Each nesting level costs a
/// handful of stack frames in the recursive-descent parser, so this
/// bounds worst-case stack use on hostile input while being far deeper
/// than any realistic query.
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// Frontend error (parse or normalization) with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XqError {
    pub offset: usize,
    pub message: String,
    /// Machine-readable code (`XPST0003` for syntax errors, `EXRQ0003`
    /// for nesting-depth overflow).
    pub code: ErrorCode,
}

impl fmt::Display for XqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XQuery error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XqError {}

/// Parse a full query (prolog + body).
pub fn parse_module(src: &str) -> Result<Module, XqError> {
    parse_module_with(src, DEFAULT_MAX_DEPTH)
}

/// [`parse_module`] with an explicit expression-nesting ceiling.
pub fn parse_module_with(src: &str, max_depth: usize) -> Result<Module, XqError> {
    let mut p = P::new(src);
    p.max_depth = max_depth;
    let module = p.module()?;
    p.ws();
    if !p.at_end() {
        return Err(p.err("trailing content after query body"));
    }
    Ok(module)
}

/// Parse a query that consists of a body only (no prolog required; a
/// prolog is still accepted).
pub fn parse_query(src: &str) -> Result<Module, XqError> {
    parse_module(src)
}

struct P<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> P<'a> {
    fn new(src: &'a str) -> Self {
        P {
            src: src.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }

    fn err(&self, msg: impl Into<String>) -> XqError {
        XqError {
            offset: self.pos,
            message: msg.into(),
            code: ErrorCode::XPST0003,
        }
    }

    /// Bump the nesting depth on entry to a recursion point
    /// (`expr_single`, `unary_expr`, `direct_constructor`); paired with
    /// [`P::leave`]. Bounds the parser's stack use on hostile input.
    fn enter(&mut self) -> Result<(), XqError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(XqError {
                offset: self.pos,
                message: format!("expression nesting exceeds depth limit {}", self.max_depth),
                code: ErrorCode::EXRQ0003,
            });
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn starts(&self, s: &str) -> bool {
        self.src
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(s.as_bytes()))
    }

    /// Skip whitespace and (nested) `(: … :)` comments.
    fn ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
            if self.starts("(:") {
                let mut depth = 0usize;
                while self.pos < self.src.len() {
                    if self.starts("(:") {
                        depth += 1;
                        self.pos += 2;
                    } else if self.starts(":)") {
                        depth -= 1;
                        self.pos += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        self.pos += 1;
                    }
                }
            } else {
                return;
            }
        }
    }

    /// Consume `s` if present (no word-boundary check — for punctuation).
    fn eat(&mut self, s: &str) -> bool {
        if self.starts(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XqError> {
        self.ws();
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    /// Peek the identifier (NCName) at the cursor, if any.
    fn peek_ident(&self) -> Option<&'a str> {
        let start = self.pos;
        if !self.peek().is_some_and(Self::is_name_start) {
            return None;
        }
        let mut end = start;
        while self.src.get(end).copied().is_some_and(Self::is_name_char) {
            end += 1;
        }
        // Invariant: name bytes accept multi-byte sequences wholesale
        // (`b >= 0x80`), so the slice ends on a char boundary of the
        // original `&str` and is always valid UTF-8.
        Some(std::str::from_utf8(&self.src[start..end]).unwrap())
    }

    /// Consume keyword `kw` if the next word is exactly it.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.ws();
        if self.peek_ident() == Some(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), XqError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`")))
        }
    }

    /// Peek keyword without consuming.
    fn at_kw(&mut self, kw: &str) -> bool {
        self.ws();
        self.peek_ident() == Some(kw)
    }

    /// Parse a QName; the `fn:` / `xs:` prefix is preserved as written.
    fn qname(&mut self) -> Result<String, XqError> {
        self.ws();
        let Some(first) = self.peek_ident() else {
            return Err(self.err("expected a name"));
        };
        self.pos += first.len();
        if self.peek() == Some(b':') && self.peek_at(1).is_some_and(Self::is_name_start) {
            self.pos += 1;
            // Invariant: the `is_name_start` guard one line up means
            // `peek_ident` cannot return `None` here.
            let second = self.peek_ident().unwrap();
            self.pos += second.len();
            Ok(format!("{first}:{second}"))
        } else {
            Ok(first.to_owned())
        }
    }

    fn var_name(&mut self) -> Result<String, XqError> {
        self.expect("$")?;
        self.qname()
    }

    // ---------------------------------------------------------- module

    fn module(&mut self) -> Result<Module, XqError> {
        let mut ordering = OrderingMode::Ordered;
        let mut variables = Vec::new();
        loop {
            self.ws();
            if !self.at_kw("declare") {
                break;
            }
            let save = self.pos;
            self.expect_kw("declare")?;
            if self.eat_kw("ordering") {
                ordering = if self.eat_kw("unordered") {
                    OrderingMode::Unordered
                } else {
                    self.expect_kw("ordered")?;
                    OrderingMode::Ordered
                };
                self.expect(";")?;
            } else if self.eat_kw("variable") {
                let name = self.var_name()?;
                self.expect(":=")?;
                let value = self.expr_single()?;
                self.expect(";")?;
                variables.push((name, value));
            } else {
                // Unknown declaration (e.g. `declare namespace`): skip to `;`.
                self.pos = save;
                while self.peek().is_some_and(|b| b != b';') {
                    self.pos += 1;
                }
                if !self.eat(";") {
                    return Err(self.err("unterminated prolog declaration"));
                }
            }
        }
        let body = self.expr()?;
        Ok(Module {
            ordering,
            variables,
            body,
        })
    }

    // ------------------------------------------------------ expressions

    /// Expr ::= ExprSingle ("," ExprSingle)*
    fn expr(&mut self) -> Result<Expr, XqError> {
        let first = self.expr_single()?;
        self.ws();
        if !self.starts(",") {
            return Ok(first);
        }
        let mut items = vec![first];
        while {
            self.ws();
            self.eat(",")
        } {
            items.push(self.expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    fn expr_single(&mut self) -> Result<Expr, XqError> {
        self.enter()?;
        let r = self.expr_single_inner();
        self.leave();
        r
    }

    fn expr_single_inner(&mut self) -> Result<Expr, XqError> {
        self.ws();
        if self.at_kw("for") || self.at_kw("let") {
            // Guard: `for`/`let` must be followed by `$` to be FLWOR.
            if self.next_word_then(b'$') {
                return self.flwor();
            }
        }
        if (self.at_kw("some") || self.at_kw("every")) && self.next_word_then(b'$') {
            return self.quantified();
        }
        if self.at_kw("if") && self.next_word_then(b'(') {
            return self.if_expr();
        }
        self.or_expr()
    }

    /// After an identifier at the cursor, is the next token-start char `c`
    /// (skipping whitespace *and* comments)?
    fn next_word_then(&mut self, c: u8) -> bool {
        self.ws();
        let Some(w) = self.peek_ident() else {
            return false;
        };
        let save = self.pos;
        self.pos += w.len();
        self.ws();
        let ok = self.peek() == Some(c);
        self.pos = save;
        ok
    }

    fn flwor(&mut self) -> Result<Expr, XqError> {
        let mut clauses = Vec::new();
        loop {
            self.ws();
            if self.at_kw("for") && self.next_word_then(b'$') {
                self.expect_kw("for")?;
                loop {
                    let var = self.var_name()?;
                    let pos_var = if self.eat_kw("at") {
                        Some(self.var_name()?)
                    } else {
                        None
                    };
                    self.expect_kw("in")?;
                    let seq = self.expr_single()?;
                    clauses.push(Clause::For { var, pos_var, seq });
                    self.ws();
                    if !self.eat(",") {
                        break;
                    }
                }
            } else if self.at_kw("let") && self.next_word_then(b'$') {
                self.expect_kw("let")?;
                loop {
                    let var = self.var_name()?;
                    self.expect(":=")?;
                    let expr = self.expr_single()?;
                    clauses.push(Clause::Let { var, expr });
                    self.ws();
                    if !self.eat(",") {
                        break;
                    }
                }
            } else if self.at_kw("where") {
                self.expect_kw("where")?;
                clauses.push(Clause::Where(self.expr_single()?));
            } else {
                break;
            }
        }
        let mut order_by = Vec::new();
        self.ws();
        if self.at_kw("stable") {
            self.expect_kw("stable")?;
        }
        if self.at_kw("order") {
            self.expect_kw("order")?;
            self.expect_kw("by")?;
            loop {
                let key = self.expr_single()?;
                let descending = if self.eat_kw("descending") {
                    true
                } else {
                    let _ = self.eat_kw("ascending");
                    false
                };
                // `empty greatest|least` accepted and ignored.
                if self.eat_kw("empty") && !self.eat_kw("greatest") {
                    self.expect_kw("least")?;
                }
                order_by.push(OrderSpec { key, descending });
                self.ws();
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect_kw("return")?;
        let ret = self.expr_single()?;
        if clauses.is_empty() {
            return Err(self.err("FLWOR without for/let clause"));
        }
        Ok(Expr::Flwor {
            clauses,
            order_by,
            reordered: false,
            ret: Box::new(ret),
        })
    }

    fn quantified(&mut self) -> Result<Expr, XqError> {
        let quant = if self.eat_kw("some") {
            Quant::Some
        } else {
            self.expect_kw("every")?;
            Quant::Every
        };
        // Multiple binding clauses desugar to nested quantifiers.
        let mut binds = Vec::new();
        loop {
            let var = self.var_name()?;
            self.expect_kw("in")?;
            let domain = self.expr_single()?;
            binds.push((var, domain));
            self.ws();
            if !self.eat(",") {
                break;
            }
        }
        self.expect_kw("satisfies")?;
        let mut body = self.expr_single()?;
        for (var, domain) in binds.into_iter().rev() {
            body = Expr::Quantified {
                quant,
                var,
                domain: Box::new(domain),
                satisfies: Box::new(body),
            };
        }
        Ok(body)
    }

    fn if_expr(&mut self) -> Result<Expr, XqError> {
        self.expect_kw("if")?;
        self.expect("(")?;
        let cond = self.expr()?;
        self.expect(")")?;
        self.expect_kw("then")?;
        let then = self.expr_single()?;
        self.expect_kw("else")?;
        let els = self.expr_single()?;
        Ok(Expr::If {
            cond: Box::new(cond),
            then: Box::new(then),
            els: Box::new(els),
        })
    }

    fn or_expr(&mut self) -> Result<Expr, XqError> {
        let mut l = self.and_expr()?;
        while self.at_operator_kw("or") {
            self.expect_kw("or")?;
            let r = self.and_expr()?;
            l = Expr::binary(BinOp::Or, l, r);
        }
        Ok(l)
    }

    fn and_expr(&mut self) -> Result<Expr, XqError> {
        let mut l = self.comparison_expr()?;
        while self.at_operator_kw("and") {
            self.expect_kw("and")?;
            let r = self.comparison_expr()?;
            l = Expr::binary(BinOp::And, l, r);
        }
        Ok(l)
    }

    /// Keyword operators are only operators when something follows that can
    /// start an operand.
    fn at_operator_kw(&mut self, kw: &str) -> bool {
        self.at_kw(kw)
    }

    fn comparison_expr(&mut self) -> Result<Expr, XqError> {
        let l = self.range_expr()?;
        self.ws();
        let op = if self.starts("<<") {
            self.pos += 2;
            Some(BinOp::Before)
        } else if self.starts(">>") {
            self.pos += 2;
            Some(BinOp::After)
        } else if self.starts("<=") {
            self.pos += 2;
            Some(BinOp::GenLe)
        } else if self.starts(">=") {
            self.pos += 2;
            Some(BinOp::GenGe)
        } else if self.starts("!=") {
            self.pos += 2;
            Some(BinOp::GenNe)
        } else if self.starts("=") {
            self.pos += 1;
            Some(BinOp::GenEq)
        } else if self.starts("<") {
            self.pos += 1;
            Some(BinOp::GenLt)
        } else if self.starts(">") {
            self.pos += 1;
            Some(BinOp::GenGt)
        } else if self.at_kw("eq") {
            self.expect_kw("eq")?;
            Some(BinOp::ValEq)
        } else if self.at_kw("ne") {
            self.expect_kw("ne")?;
            Some(BinOp::ValNe)
        } else if self.at_kw("lt") {
            self.expect_kw("lt")?;
            Some(BinOp::ValLt)
        } else if self.at_kw("le") {
            self.expect_kw("le")?;
            Some(BinOp::ValLe)
        } else if self.at_kw("gt") {
            self.expect_kw("gt")?;
            Some(BinOp::ValGt)
        } else if self.at_kw("ge") {
            self.expect_kw("ge")?;
            Some(BinOp::ValGe)
        } else if self.at_kw("is") {
            self.expect_kw("is")?;
            Some(BinOp::Is)
        } else {
            None
        };
        match op {
            None => Ok(l),
            Some(op) => {
                let r = self.range_expr()?;
                Ok(Expr::binary(op, l, r))
            }
        }
    }

    fn range_expr(&mut self) -> Result<Expr, XqError> {
        let l = self.additive_expr()?;
        if self.at_kw("to") {
            self.expect_kw("to")?;
            let r = self.additive_expr()?;
            return Ok(Expr::binary(BinOp::To, l, r));
        }
        Ok(l)
    }

    fn additive_expr(&mut self) -> Result<Expr, XqError> {
        let mut l = self.multiplicative_expr()?;
        loop {
            self.ws();
            if self.eat("+") {
                let r = self.multiplicative_expr()?;
                l = Expr::binary(BinOp::Add, l, r);
            } else if self.peek() == Some(b'-') && !self.starts("->") {
                self.pos += 1;
                let r = self.multiplicative_expr()?;
                l = Expr::binary(BinOp::Sub, l, r);
            } else {
                return Ok(l);
            }
        }
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, XqError> {
        let mut l = self.union_expr()?;
        loop {
            self.ws();
            if self.peek() == Some(b'*') {
                self.pos += 1;
                let r = self.union_expr()?;
                l = Expr::binary(BinOp::Mul, l, r);
            } else if self.at_kw("div") {
                self.expect_kw("div")?;
                let r = self.union_expr()?;
                l = Expr::binary(BinOp::Div, l, r);
            } else if self.at_kw("idiv") {
                self.expect_kw("idiv")?;
                let r = self.union_expr()?;
                l = Expr::binary(BinOp::IDiv, l, r);
            } else if self.at_kw("mod") {
                self.expect_kw("mod")?;
                let r = self.union_expr()?;
                l = Expr::binary(BinOp::Mod, l, r);
            } else {
                return Ok(l);
            }
        }
    }

    fn union_expr(&mut self) -> Result<Expr, XqError> {
        let mut l = self.intersect_except_expr()?;
        loop {
            self.ws();
            if self.peek() == Some(b'|') {
                self.pos += 1;
                let r = self.intersect_except_expr()?;
                l = Expr::binary(BinOp::Union, l, r);
            } else if self.at_kw("union") {
                self.expect_kw("union")?;
                let r = self.intersect_except_expr()?;
                l = Expr::binary(BinOp::Union, l, r);
            } else {
                return Ok(l);
            }
        }
    }

    fn intersect_except_expr(&mut self) -> Result<Expr, XqError> {
        let mut l = self.unary_expr()?;
        loop {
            if self.at_kw("intersect") {
                self.expect_kw("intersect")?;
                let r = self.unary_expr()?;
                l = Expr::binary(BinOp::Intersect, l, r);
            } else if self.at_kw("except") {
                self.expect_kw("except")?;
                let r = self.unary_expr()?;
                l = Expr::binary(BinOp::Except, l, r);
            } else {
                return Ok(l);
            }
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, XqError> {
        self.enter()?;
        let r = self.unary_expr_inner();
        self.leave();
        r
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, XqError> {
        self.ws();
        if self.eat("-") {
            let e = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Minus,
                expr: Box::new(e),
            });
        }
        if self.eat("+") {
            let e = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Plus,
                expr: Box::new(e),
            });
        }
        self.path_expr()
    }

    // ------------------------------------------------------------ paths

    fn path_expr(&mut self) -> Result<Expr, XqError> {
        self.ws();
        if self.starts("//") {
            self.pos += 2;
            let dos = Expr::PathStep {
                input: Box::new(Expr::Root),
                axis: Axis::DescendantOrSelf,
                test: NodeTestAst::AnyKind,
                predicates: vec![],
            };
            let first = self.step_expr(Some(dos))?;
            return self.relative_path(first);
        }
        if self.peek() == Some(b'/') {
            self.pos += 1;
            self.ws();
            // A lone `/` selects the root document node.
            if self.can_start_step() {
                let first = self.step_expr(Some(Expr::Root))?;
                return self.relative_path(first);
            }
            return Ok(Expr::Root);
        }
        let first = self.step_expr(None)?;
        self.relative_path(first)
    }

    fn can_start_step(&mut self) -> bool {
        self.ws();
        match self.peek() {
            Some(b'@') | Some(b'.') | Some(b'*') | Some(b'$') | Some(b'(') => true,
            Some(c) => Self::is_name_start(c),
            None => false,
        }
    }

    fn relative_path(&mut self, mut input: Expr) -> Result<Expr, XqError> {
        loop {
            self.ws();
            if self.starts("//") {
                self.pos += 2;
                let dos = Expr::PathStep {
                    input: Box::new(input),
                    axis: Axis::DescendantOrSelf,
                    test: NodeTestAst::AnyKind,
                    predicates: vec![],
                };
                input = self.step_expr(Some(dos))?;
            } else if self.peek() == Some(b'/') {
                self.pos += 1;
                input = self.step_expr(Some(input))?;
            } else {
                return Ok(input);
            }
        }
    }

    /// One step. With `input = None` this is the first step of a relative
    /// path: it may be a primary expression followed by predicates.
    fn step_expr(&mut self, input: Option<Expr>) -> Result<Expr, XqError> {
        self.ws();
        // `..` — parent::node()
        if self.starts("..") {
            self.pos += 2;
            let base = input.unwrap_or(Expr::ContextItem);
            return self.with_predicates_step(base, Axis::Parent, NodeTestAst::AnyKind);
        }
        // `@test`
        if self.eat("@") {
            let test = self.node_test()?;
            let base = input.unwrap_or(Expr::ContextItem);
            return self.with_predicates_step(base, Axis::Attribute, test);
        }
        // `axis::test`
        if let Some(word) = self.peek_ident() {
            if let Some(axis) = axis_from_name(word) {
                let mut look = self.pos + word.len();
                while matches!(self.src.get(look), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    look += 1;
                }
                if self.src.get(look) == Some(&b':') && self.src.get(look + 1) == Some(&b':') {
                    self.pos = look + 2;
                    let test = self.node_test()?;
                    let base = input.unwrap_or(Expr::ContextItem);
                    return self.with_predicates_step(base, axis, test);
                }
            }
        }
        // Kind tests & name tests (default child axis) — but only when this
        // genuinely is a step: primary expressions win in first position.
        match input {
            Some(base) => {
                // Inside a path, a step is an axis step, a kind test, or a
                // general expression applied per context node (PathSeq) —
                // e.g. the paper's `$t//(c|d)`.
                if self.is_primary_position() {
                    let primary = self.primary_expr()?;
                    let step = self.with_predicates_filter(primary)?;
                    return Ok(Expr::PathSeq {
                        input: Box::new(base),
                        step: Box::new(step),
                    });
                }
                let test = self.node_test()?;
                self.with_predicates_step(base, Axis::Child, test)
            }
            None => {
                // First position: primary expressions, or a child-axis step
                // from the context item.
                if self.is_primary_position() {
                    let primary = self.primary_expr()?;
                    return self.with_predicates_filter(primary);
                }
                let test = self.node_test()?;
                self.with_predicates_step(Expr::ContextItem, Axis::Child, test)
            }
        }
    }

    /// In first-step position, decide between primary expression and name
    /// test: literals, `$var`, `(`, `.`, constructors, keyword expressions
    /// and function calls are primary; a bare name or `*` is a step.
    fn is_primary_position(&mut self) -> bool {
        self.ws();
        match self.peek() {
            Some(b'$') | Some(b'(') | Some(b'"') | Some(b'\'') | Some(b'<') => true,
            Some(b'.') => !self.starts(".."),
            Some(c) if c.is_ascii_digit() => true,
            Some(c) if Self::is_name_start(c) => {
                // Invariant: the `is_name_start` guard means `peek_ident`
                // cannot return `None` here.
                let word = self.peek_ident().unwrap().to_owned();
                // Kind-test names are steps when followed by `(`; `text {`
                // and `element name {` are computed constructors.
                if matches!(
                    word.as_str(),
                    "node" | "comment" | "processing-instruction" | "document-node"
                ) {
                    return false;
                }
                if word == "text" || word == "element" {
                    let mut i = self.pos + word.len();
                    while matches!(self.src.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                        i += 1;
                    }
                    return match self.src.get(i) {
                        Some(b'{') => true,  // text { e }
                        Some(b'(') => false, // kind test
                        Some(&ch) if Self::is_name_start(ch) && word == "element" => true,
                        _ => false,
                    };
                }
                // Constructor & scope keywords.
                if matches!(word.as_str(), "unordered" | "ordered") {
                    // `unordered {` is a scope; `unordered(` is fn:unordered.
                    let mut i = self.pos + word.len();
                    while matches!(self.src.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                        i += 1;
                    }
                    return matches!(self.src.get(i), Some(b'{') | Some(b'('));
                }
                if matches!(word.as_str(), "attribute") {
                    // `attribute name {` is a computed constructor; plain
                    // `attribute` as a name test is too exotic to support.
                    let mut i = self.pos + word.len();
                    while matches!(self.src.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                        i += 1;
                    }
                    return self.src.get(i).copied().is_some_and(Self::is_name_start);
                }
                // A name directly followed by `(` is a function call; a
                // name followed by `:name(` likewise.
                let mut i = self.pos + word.len();
                if self.src.get(i) == Some(&b':')
                    && self
                        .src
                        .get(i + 1)
                        .copied()
                        .is_some_and(Self::is_name_start)
                {
                    i += 1;
                    while self.src.get(i).copied().is_some_and(Self::is_name_char) {
                        i += 1;
                    }
                }
                while matches!(self.src.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    i += 1;
                }
                self.src.get(i) == Some(&b'(')
            }
            _ => false,
        }
    }

    fn node_test(&mut self) -> Result<NodeTestAst, XqError> {
        self.ws();
        if self.eat("*") {
            return Ok(NodeTestAst::Wildcard);
        }
        let name = self.qname()?;
        self.ws();
        if self.peek() == Some(b'(') {
            self.pos += 1;
            match name.as_str() {
                "node" => {
                    self.expect(")")?;
                    return Ok(NodeTestAst::AnyKind);
                }
                "text" => {
                    self.expect(")")?;
                    return Ok(NodeTestAst::Text);
                }
                "comment" => {
                    self.expect(")")?;
                    return Ok(NodeTestAst::Comment);
                }
                "element" => {
                    self.ws();
                    if self.eat(")") {
                        return Ok(NodeTestAst::Element);
                    }
                    let n = self.qname()?;
                    self.expect(")")?;
                    return Ok(NodeTestAst::Name(n));
                }
                "document-node" => {
                    self.expect(")")?;
                    return Ok(NodeTestAst::DocumentNode);
                }
                "processing-instruction" => {
                    self.ws();
                    if self.eat(")") {
                        return Ok(NodeTestAst::Pi(None));
                    }
                    let target = if self.peek() == Some(b'"') || self.peek() == Some(b'\'') {
                        self.string_literal()?
                    } else {
                        self.qname()?
                    };
                    self.expect(")")?;
                    return Ok(NodeTestAst::Pi(Some(target)));
                }
                _ => {
                    return Err(self.err(format!("`{name}(` is not a node test")));
                }
            }
        }
        // Strip namespace prefix from name tests (no prefix resolution).
        // Invariant: `rsplit` always yields at least one element.
        let local = name.rsplit(':').next().unwrap().to_owned();
        Ok(NodeTestAst::Name(local))
    }

    fn with_predicates_step(
        &mut self,
        input: Expr,
        axis: Axis,
        test: NodeTestAst,
    ) -> Result<Expr, XqError> {
        let mut predicates = Vec::new();
        loop {
            self.ws();
            if self.eat("[") {
                predicates.push(self.expr()?);
                self.expect("]")?;
            } else {
                break;
            }
        }
        Ok(Expr::PathStep {
            input: Box::new(input),
            axis,
            test,
            predicates,
        })
    }

    fn with_predicates_filter(&mut self, mut e: Expr) -> Result<Expr, XqError> {
        loop {
            self.ws();
            if self.eat("[") {
                let p = self.expr()?;
                self.expect("]")?;
                e = Expr::Filter {
                    input: Box::new(e),
                    predicate: Box::new(p),
                };
            } else {
                return Ok(e);
            }
        }
    }

    // -------------------------------------------------------- primaries

    fn primary_expr(&mut self) -> Result<Expr, XqError> {
        self.ws();
        match self.peek() {
            Some(b'$') => Ok(Expr::Var(self.var_name()?)),
            Some(b'(') => {
                self.pos += 1;
                self.ws();
                if self.eat(")") {
                    return Ok(Expr::Empty);
                }
                let e = self.expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Some(b'"') | Some(b'\'') => Ok(Expr::StrLit(self.string_literal()?)),
            Some(b'.') if !self.starts("..") => {
                // Disambiguate `.5` (number) from `.` (context item).
                if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                    self.number()
                } else {
                    self.pos += 1;
                    Ok(Expr::ContextItem)
                }
            }
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(b'<') => self.direct_constructor(),
            Some(c) if Self::is_name_start(c) => {
                // Invariant: the `is_name_start` guard means `peek_ident`
                // cannot return `None` here.
                let word = self.peek_ident().unwrap().to_owned();
                match word.as_str() {
                    "unordered" | "ordered" => {
                        let mut i = self.pos + word.len();
                        while matches!(self.src.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                            i += 1;
                        }
                        if self.src.get(i) == Some(&b'{') {
                            self.pos = i + 1;
                            let e = self.expr()?;
                            self.expect("}")?;
                            let mode = if word == "unordered" {
                                OrderingMode::Unordered
                            } else {
                                OrderingMode::Ordered
                            };
                            return Ok(Expr::OrderingScope {
                                mode,
                                expr: Box::new(e),
                            });
                        }
                        self.function_call()
                    }
                    "text" => {
                        // computed text constructor `text { e }`
                        let mut i = self.pos + word.len();
                        while matches!(self.src.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                            i += 1;
                        }
                        if self.src.get(i) == Some(&b'{') {
                            self.pos = i + 1;
                            let e = self.expr()?;
                            self.expect("}")?;
                            return Ok(Expr::TextConstructor(Box::new(e)));
                        }
                        self.function_call()
                    }
                    "attribute" | "element" => {
                        let save = self.pos;
                        self.pos += word.len();
                        self.ws();
                        if self.peek().is_some_and(Self::is_name_start) {
                            let name = self.qname()?;
                            self.ws();
                            if self.eat("{") {
                                let e = self.ws_then_expr_or_empty()?;
                                self.expect("}")?;
                                return Ok(if word == "attribute" {
                                    Expr::AttrConstructor {
                                        name,
                                        value: Box::new(e),
                                    }
                                } else {
                                    Expr::ElemConstructor {
                                        name,
                                        content: Box::new(e),
                                    }
                                });
                            }
                        }
                        self.pos = save;
                        self.function_call()
                    }
                    _ => self.function_call(),
                }
            }
            _ => Err(self.err("expected an expression")),
        }
    }

    fn ws_then_expr_or_empty(&mut self) -> Result<Expr, XqError> {
        self.ws();
        if self.peek() == Some(b'}') {
            return Ok(Expr::Empty);
        }
        self.expr()
    }

    fn function_call(&mut self) -> Result<Expr, XqError> {
        let name = self.qname()?;
        self.expect("(")?;
        let mut args = Vec::new();
        self.ws();
        if !self.eat(")") {
            loop {
                args.push(self.expr_single()?);
                self.ws();
                if self.eat(",") {
                    continue;
                }
                self.expect(")")?;
                break;
            }
        }
        // Strip the fn: prefix; built-ins are matched on local name.
        let local = name.strip_prefix("fn:").unwrap_or(&name).to_owned();
        Ok(Expr::Call { name: local, args })
    }

    fn string_literal(&mut self) -> Result<String, XqError> {
        self.ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected string literal")),
        };
        self.pos += 1;
        let mut raw = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string literal")),
                Some(c) if c == quote => {
                    if self.peek_at(1) == Some(quote) {
                        raw.push(quote as char);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    raw.push_str(
                        std::str::from_utf8(&self.src[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string literal"))?,
                    );
                }
            }
        }
        decode_entities(&raw)
            .map(Cow::into_owned)
            .map_err(|m| self.err(m))
    }

    fn number(&mut self) -> Result<Expr, XqError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_double = false;
        if self.peek() == Some(b'.') && !self.starts("..") {
            is_double = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_double = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Invariant: only ASCII digits / `.` / `e` were consumed, so the
        // slice is valid UTF-8.
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_double {
            text.parse::<f64>()
                .map(Expr::DblLit)
                .map_err(|_| self.err(format!("bad numeric literal `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Expr::IntLit)
                .map_err(|_| self.err(format!("bad integer literal `{text}`")))
        }
    }

    // ------------------------------------------- direct constructors

    fn direct_constructor(&mut self) -> Result<Expr, XqError> {
        self.enter()?;
        let r = self.direct_constructor_inner();
        self.leave();
        r
    }

    fn direct_constructor_inner(&mut self) -> Result<Expr, XqError> {
        self.expect("<")?;
        let name = self.qname()?;
        let mut attrs = Vec::new();
        loop {
            self.ws();
            if self.eat("/>") {
                return Ok(Expr::DirElement {
                    name,
                    attrs,
                    content: vec![],
                });
            }
            if self.eat(">") {
                break;
            }
            let attr_name = self.qname()?;
            self.ws();
            self.expect("=")?;
            self.ws();
            let value = self.attr_value_template()?;
            attrs.push(DirAttr {
                name: attr_name,
                value,
            });
        }
        let content = self.element_content(&name)?;
        Ok(Expr::DirElement {
            name,
            attrs,
            content,
        })
    }

    fn attr_value_template(&mut self) -> Result<Vec<AttrPart>, XqError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let mut parts = Vec::new();
        let mut lit = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => {
                    if self.peek_at(1) == Some(quote) {
                        lit.push(quote as char);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break;
                    }
                }
                Some(b'{') => {
                    if self.peek_at(1) == Some(b'{') {
                        lit.push('{');
                        self.pos += 2;
                    } else {
                        if !lit.is_empty() {
                            parts.push(AttrPart::Lit(std::mem::take(&mut lit)));
                        }
                        self.pos += 1;
                        let e = self.expr()?;
                        self.expect("}")?;
                        parts.push(AttrPart::Expr(e));
                    }
                }
                Some(b'}') => {
                    if self.peek_at(1) == Some(b'}') {
                        lit.push('}');
                        self.pos += 2;
                    } else {
                        return Err(self.err("bare `}` in attribute value"));
                    }
                }
                Some(b'&') => {
                    let semi = self.src[self.pos..]
                        .iter()
                        .position(|&b| b == b';')
                        .ok_or_else(|| self.err("unterminated entity reference"))?;
                    // Invariant: the slice is delimited by ASCII `&`/`;`
                    // inside a `&str`, so it sits on char boundaries.
                    let ent =
                        std::str::from_utf8(&self.src[self.pos..self.pos + semi + 1]).unwrap();
                    lit.push_str(&decode_entities(ent).map_err(|m| self.err(m))?);
                    self.pos += semi + 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != quote && c != b'{' && c != b'}' && c != b'&')
                    {
                        self.pos += 1;
                    }
                    // Invariant: the scan stops only at ASCII delimiters,
                    // so the slice sits on char boundaries of the source.
                    lit.push_str(std::str::from_utf8(&self.src[start..self.pos]).unwrap());
                }
            }
        }
        if !lit.is_empty() || parts.is_empty() {
            parts.push(AttrPart::Lit(lit));
        }
        Ok(parts)
    }

    fn element_content(&mut self, name: &str) -> Result<Vec<ElemContent>, XqError> {
        let mut content = Vec::new();
        let mut text = String::new();
        let flush = |text: &mut String, content: &mut Vec<ElemContent>| {
            // Boundary whitespace (whitespace-only text) is stripped, per
            // the XQuery default boundary-space policy.
            if !text.is_empty() && !text.chars().all(char::is_whitespace) {
                content.push(ElemContent::Text(std::mem::take(text)));
            } else {
                text.clear();
            }
        };
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unterminated element `<{name}>`"))),
                Some(b'<') => {
                    if self.starts("</") {
                        flush(&mut text, &mut content);
                        self.pos += 2;
                        let end = self.qname()?;
                        if end != name {
                            return Err(
                                self.err(format!("mismatched end tag `</{end}>` for `<{name}>`"))
                            );
                        }
                        self.ws();
                        self.expect(">")?;
                        return Ok(content);
                    }
                    if self.starts("<!--") {
                        // Comments in constructor content are dropped.
                        self.pos += 4;
                        while !self.starts("-->") {
                            if self.at_end() {
                                return Err(self.err("unterminated comment"));
                            }
                            self.pos += 1;
                        }
                        self.pos += 3;
                        continue;
                    }
                    if self.starts("<![CDATA[") {
                        self.pos += 9;
                        let start = self.pos;
                        while !self.starts("]]>") {
                            if self.at_end() {
                                return Err(self.err("unterminated CDATA"));
                            }
                            self.pos += 1;
                        }
                        // Invariant: `]]>` is ASCII, so the slice sits on
                        // char boundaries of the source.
                        text.push_str(std::str::from_utf8(&self.src[start..self.pos]).unwrap());
                        self.pos += 3;
                        continue;
                    }
                    flush(&mut text, &mut content);
                    let child = self.direct_constructor()?;
                    content.push(ElemContent::Expr(child));
                }
                Some(b'{') => {
                    if self.peek_at(1) == Some(b'{') {
                        text.push('{');
                        self.pos += 2;
                        continue;
                    }
                    flush(&mut text, &mut content);
                    self.pos += 1;
                    let e = self.expr()?;
                    self.expect("}")?;
                    content.push(ElemContent::Expr(e));
                }
                Some(b'}') => {
                    if self.peek_at(1) == Some(b'}') {
                        text.push('}');
                        self.pos += 2;
                    } else {
                        return Err(self.err("bare `}` in element content"));
                    }
                }
                Some(b'&') => {
                    let semi = self.src[self.pos..]
                        .iter()
                        .position(|&b| b == b';')
                        .ok_or_else(|| self.err("unterminated entity reference"))?;
                    // Invariant: the slice is delimited by ASCII `&`/`;`
                    // inside a `&str`, so it sits on char boundaries.
                    let ent =
                        std::str::from_utf8(&self.src[self.pos..self.pos + semi + 1]).unwrap();
                    text.push_str(&decode_entities(ent).map_err(|m| self.err(m))?);
                    self.pos += semi + 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'<' && c != b'{' && c != b'}' && c != b'&')
                    {
                        self.pos += 1;
                    }
                    text.push_str(
                        std::str::from_utf8(&self.src[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in element content"))?,
                    );
                }
            }
        }
    }
}

fn axis_from_name(name: &str) -> Option<Axis> {
    Some(match name {
        "child" => Axis::Child,
        "descendant" => Axis::Descendant,
        "descendant-or-self" => Axis::DescendantOrSelf,
        "self" => Axis::SelfAxis,
        "attribute" => Axis::Attribute,
        "parent" => Axis::Parent,
        "ancestor" => Axis::Ancestor,
        "ancestor-or-self" => Axis::AncestorOrSelf,
        "following-sibling" => Axis::FollowingSibling,
        "preceding-sibling" => Axis::PrecedingSibling,
        "following" => Axis::Following,
        "preceding" => Axis::Preceding,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Expr {
        parse_module(s)
            .unwrap_or_else(|e| panic!("parse failed for `{s}`: {e}"))
            .body
    }

    #[test]
    fn literals() {
        assert_eq!(parse("42"), Expr::IntLit(42));
        assert_eq!(parse("3.5"), Expr::DblLit(3.5));
        assert_eq!(parse("1e3"), Expr::DblLit(1000.0));
        assert_eq!(parse(r#""he""llo""#), Expr::StrLit("he\"llo".into()));
        assert_eq!(parse("'a&lt;b'"), Expr::StrLit("a<b".into()));
        assert_eq!(parse("()"), Expr::Empty);
    }

    #[test]
    fn sequences_and_arith() {
        let e = parse("1, 2 + 3 * 4");
        match e {
            Expr::Sequence(items) => {
                assert_eq!(items.len(), 2);
                // 2 + (3 * 4)
                match &items[1] {
                    Expr::Binary {
                        op: BinOp::Add, r, ..
                    } => {
                        assert!(matches!(**r, Expr::Binary { op: BinOp::Mul, .. }));
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn paths_desugar() {
        // $t//(c|d) — the paper's Expression (1): the parenthesised union
        // is a filter source, reached via two explicit steps.
        let e = parse("$t//c");
        match e {
            Expr::PathStep {
                input,
                axis: Axis::Child,
                test: NodeTestAst::Name(n),
                ..
            } => {
                assert_eq!(n, "c");
                assert!(matches!(
                    *input,
                    Expr::PathStep {
                        axis: Axis::DescendantOrSelf,
                        test: NodeTestAst::AnyKind,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn union_in_path() {
        // The paper's Expression (1): the parenthesised union is a general
        // expression applied per context node (PathSeq).
        let e = parse("$t//(c|d)");
        match e {
            Expr::PathSeq { input, step } => {
                assert!(matches!(
                    *input,
                    Expr::PathStep {
                        axis: Axis::DescendantOrSelf,
                        ..
                    }
                ));
                assert!(matches!(
                    *step,
                    Expr::Binary {
                        op: BinOp::Union,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn attribute_and_abbrev_steps() {
        let e = parse("$p/profile/@income");
        match e {
            Expr::PathStep {
                axis: Axis::Attribute,
                test: NodeTestAst::Name(n),
                ..
            } => assert_eq!(n, "income"),
            other => panic!("unexpected: {other:?}"),
        }
        let e = parse("$x/..");
        assert!(matches!(
            e,
            Expr::PathStep {
                axis: Axis::Parent,
                ..
            }
        ));
    }

    #[test]
    fn predicates() {
        let e = parse("$a/b[2]/c[@id = 'x']");
        match e {
            Expr::PathStep { predicates, .. } => {
                assert_eq!(predicates.len(), 1);
                assert!(matches!(
                    predicates[0],
                    Expr::Binary {
                        op: BinOp::GenEq,
                        ..
                    }
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn flwor_full() {
        let q = "for $x at $p in (1,2,3) let $y := $x * 2 where $y > 2 \
                 order by $y descending return ($x, $y)";
        match parse(q) {
            Expr::Flwor {
                clauses, order_by, ..
            } => {
                assert_eq!(clauses.len(), 3);
                assert!(matches!(
                    &clauses[0],
                    Clause::For {
                        pos_var: Some(p),
                        ..
                    } if p == "p"
                ));
                assert!(matches!(&clauses[1], Clause::Let { .. }));
                assert!(matches!(&clauses[2], Clause::Where(_)));
                assert_eq!(order_by.len(), 1);
                assert!(order_by[0].descending);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn multi_var_for_desugars_to_clauses() {
        match parse("for $x in (1,2), $y in (3,4) return $x") {
            Expr::Flwor { clauses, .. } => assert_eq!(clauses.len(), 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn quantifiers() {
        match parse("some $x in (1,2) satisfies $x = 2") {
            Expr::Quantified {
                quant: Quant::Some, ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
        // multi-binding desugars to nesting
        match parse("every $x in (1), $y in (2) satisfies $x < $y") {
            Expr::Quantified {
                quant: Quant::Every,
                satisfies,
                ..
            } => assert!(matches!(*satisfies, Expr::Quantified { .. })),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn if_and_comparisons() {
        match parse("if ($a eq 1) then 2 else 3") {
            Expr::If { cond, .. } => {
                assert!(matches!(
                    *cond,
                    Expr::Binary {
                        op: BinOp::ValEq,
                        ..
                    }
                ))
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(
            parse("$a << $b"),
            Expr::Binary {
                op: BinOp::Before,
                ..
            }
        ));
        assert!(matches!(
            parse("$a is $b"),
            Expr::Binary { op: BinOp::Is, .. }
        ));
    }

    #[test]
    fn ordering_scopes_and_fn_unordered() {
        match parse("unordered { $t//c }") {
            Expr::OrderingScope {
                mode: OrderingMode::Unordered,
                ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
        match parse("fn:unordered($x)") {
            Expr::Call { name, args } => {
                assert_eq!(name, "unordered");
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
        match parse("ordered { 1 }") {
            Expr::OrderingScope {
                mode: OrderingMode::Ordered,
                ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn prolog_declarations() {
        let m =
            parse_module("declare ordering unordered; declare variable $x := 1; $x + 1").unwrap();
        assert_eq!(m.ordering, OrderingMode::Unordered);
        assert_eq!(m.variables.len(), 1);
    }

    #[test]
    fn direct_constructor_with_templates() {
        // Expression (4) of the paper.
        let q = r#"for $x at $p in ("a","b","c") return <e pos="{ $p }">{ $x }</e>"#;
        match parse(q) {
            Expr::Flwor { ret, .. } => match *ret {
                Expr::DirElement {
                    name,
                    attrs,
                    content,
                } => {
                    assert_eq!(name, "e");
                    assert_eq!(attrs.len(), 1);
                    assert_eq!(attrs[0].name, "pos");
                    assert!(matches!(attrs[0].value[0], AttrPart::Expr(_)));
                    assert_eq!(content.len(), 1);
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn nested_direct_constructors_and_boundary_space() {
        let q = "<a> <b>text</b> {1} </a>";
        match parse(q) {
            Expr::DirElement { content, .. } => {
                // whitespace-only runs dropped: <b> element and {1} remain
                assert_eq!(content.len(), 2);
                assert!(matches!(
                    content[0],
                    ElemContent::Expr(Expr::DirElement { .. })
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn computed_constructors() {
        assert!(matches!(parse("text { 'x' }"), Expr::TextConstructor(_)));
        assert!(matches!(
            parse("attribute id { 1 }"),
            Expr::AttrConstructor { .. }
        ));
        assert!(matches!(
            parse("element foo { () }"),
            Expr::ElemConstructor { .. }
        ));
    }

    #[test]
    fn node_set_ops_and_range() {
        assert!(matches!(
            parse("$a | $b"),
            Expr::Binary {
                op: BinOp::Union,
                ..
            }
        ));
        assert!(matches!(
            parse("$a intersect $b"),
            Expr::Binary {
                op: BinOp::Intersect,
                ..
            }
        ));
        assert!(matches!(
            parse("$a except $b"),
            Expr::Binary {
                op: BinOp::Except,
                ..
            }
        ));
        assert!(matches!(
            parse("1 to 10"),
            Expr::Binary { op: BinOp::To, .. }
        ));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(parse("(: hi (: nested :) :) 42"), Expr::IntLit(42));
    }

    #[test]
    fn kind_tests() {
        assert!(matches!(
            parse("$a/text()"),
            Expr::PathStep {
                test: NodeTestAst::Text,
                ..
            }
        ));
        assert!(matches!(
            parse("$a/node()"),
            Expr::PathStep {
                test: NodeTestAst::AnyKind,
                ..
            }
        ));
        assert!(matches!(
            parse("$a/*"),
            Expr::PathStep {
                test: NodeTestAst::Wildcard,
                ..
            }
        ));
    }

    #[test]
    fn leading_slash_paths() {
        assert!(matches!(parse("/"), Expr::Root));
        match parse("/site/regions") {
            Expr::PathStep { input, .. } => {
                assert!(matches!(*input, Expr::PathStep { .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(parse("//item"), Expr::PathStep { .. }));
    }

    #[test]
    fn error_positions() {
        let err = parse_module("1 +").unwrap_err();
        assert!(err.offset >= 3);
        assert!(parse_module("for $x in").is_err());
        assert!(parse_module("<a><b></a>").is_err());
    }

    #[test]
    fn xmark_q1_parses() {
        let q = r#"
            let $auction := doc("auction.xml")
            return for $b in $auction/site/people/person[@id = "person0"]
                   return $b/name/text()"#;
        parse(q);
    }

    #[test]
    fn xmark_q11_parses() {
        let q = r#"
            let $auction := doc("auction.xml")
            for $p in $auction/site/people/person
            let $l := for $i in $auction/site/open_auctions/open_auction/initial
                      where $p/profile/@income > 5000 * $i
                      return $i
            return <items name="{ $p/name }">{ fn:count($l) }</items>"#;
        parse(q);
    }
}
