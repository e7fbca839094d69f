//! A small, dependency-free, non-validating XML parser.
//!
//! Supports the XML subset needed by `fn:doc()` over XMark-style documents:
//! elements, attributes, character data, CDATA sections, comments,
//! processing instructions, the five predefined entities and numeric
//! character references, and an optional XML declaration / doctype line
//! (skipped). Namespaces are treated lexically (a name may contain `:`); no
//! prefix resolution is performed, matching the paper's use of plain tag
//! names.

use crate::builder::TreeBuilder;
use crate::name::NamePool;
use crate::tree::Document;
use exrquy_diag::ErrorCode;
use std::fmt;

/// Default element-nesting ceiling: deep enough for any realistic
/// document, shallow enough that recursive descent cannot overflow the
/// stack on hostile input.
pub const DEFAULT_MAX_DEPTH: usize = 512;

/// Error with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
    /// Machine-readable code (`FODC0006` for malformed content,
    /// `EXRQ0003` for nesting-depth overflow).
    pub code: ErrorCode,
    /// Where the input came from (file path or URL), when known. Set by
    /// document loaders via [`with_source`](Self::with_source) so the
    /// rendered message names the offending document, not just the offset.
    pub source: Option<String>,
}

impl ParseError {
    /// Attach the originating path/URL to the error.
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Some(src) => write!(
                f,
                "XML parse error in `{src}` at byte {}: {}",
                self.offset, self.message
            ),
            None => write!(
                f,
                "XML parse error at byte {}: {}",
                self.offset, self.message
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete XML document (one root element, optional prolog) into
/// the pre/size/level encoding. The result carries a document root node at
/// pre rank 0.
pub fn parse_document(input: &str, pool: &mut NamePool) -> Result<Document, ParseError> {
    parse_document_with(input, pool, DEFAULT_MAX_DEPTH)
}

/// [`parse_document`] with an explicit element-nesting ceiling.
pub fn parse_document_with(
    input: &str,
    pool: &mut NamePool,
    max_depth: usize,
) -> Result<Document, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        pool,
        builder: TreeBuilder::new_document(),
        max_depth,
    };
    p.skip_prolog()?;
    p.parse_element()?;
    p.skip_misc();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(p.builder.finish())
}

struct Parser<'a, 'p> {
    bytes: &'a [u8],
    pos: usize,
    pool: &'p mut NamePool,
    builder: TreeBuilder,
    max_depth: usize,
}

impl Parser<'_, '_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
            code: ErrorCode::FODC0006,
            source: None,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip XML declaration, doctype, comments and PIs before the root.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Naive: skip to the next `>` (internal subsets unsupported).
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip comments / PIs / whitespace after the root element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        match find(self.bytes, self.pos, end) {
            Some(i) => {
                self.pos = i + end.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct, expected `{end}`"))),
        }
    }

    fn is_name_byte(b: u8, first: bool) -> bool {
        b.is_ascii_alphabetic()
            || b == b'_'
            || b == b':'
            || b >= 0x80
            || (!first && (b.is_ascii_digit() || b == b'-' || b == b'.'))
    }

    fn parse_name(&mut self) -> Result<&str, ParseError> {
        let start = self.pos;
        if !self.peek().is_some_and(|b| Self::is_name_byte(b, true)) {
            return Err(self.err("expected a name"));
        }
        while self.peek().is_some_and(|b| Self::is_name_byte(b, false)) {
            self.pos += 1;
        }
        // Safety: name bytes keep UTF-8 boundaries (multi-byte sequences are
        // accepted wholesale via `b >= 0x80`).
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("valid utf8 slice"))
    }

    /// Parse one element (the document root) and everything inside it.
    ///
    /// Iterative with an explicit stack of open element names: nesting
    /// depth is heap-bounded (and budget-checked against `max_depth`)
    /// instead of consuming a native stack frame per level, so hostile
    /// deeply-nested input cannot overflow the stack no matter how small
    /// the calling thread's stack is.
    fn parse_element(&mut self) -> Result<(), ParseError> {
        let mut open: Vec<String> = Vec::new();
        'start_tag: loop {
            // Positioned at a start tag `<name …`.
            if open.len() >= self.max_depth {
                return Err(ParseError {
                    offset: self.pos,
                    message: format!("element nesting exceeds depth limit {}", self.max_depth),
                    code: ErrorCode::EXRQ0003,
                    source: None,
                });
            }
            self.expect("<")?;
            let name = self.parse_name()?.to_owned();
            let name_id = self.pool.intern(&name);
            self.builder.open_element(name_id);

            // Attributes.
            let mut self_closing = false;
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'>') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b'/') => {
                        self.expect("/>")?;
                        self.builder.close();
                        self_closing = true;
                        break;
                    }
                    Some(_) => {
                        let attr = self.parse_name()?.to_owned();
                        let attr_id = self.pool.intern(&attr);
                        self.skip_ws();
                        self.expect("=")?;
                        self.skip_ws();
                        let quote = match self.peek() {
                            Some(q @ (b'"' | b'\'')) => q,
                            _ => return Err(self.err("expected quoted attribute value")),
                        };
                        self.pos += 1;
                        let raw_start = self.pos;
                        while self.peek().is_some_and(|b| b != quote) {
                            self.pos += 1;
                        }
                        let raw = std::str::from_utf8(&self.bytes[raw_start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in attribute value"))?;
                        let value = decode_entities(raw).map_err(|m| self.err(m))?;
                        // `quote` is ASCII (`"` or `'`), so the one-byte slice
                        // is always valid UTF-8.
                        self.expect(std::str::from_utf8(&[quote]).unwrap())?;
                        self.builder.attribute(attr_id, &value);
                    }
                    None => return Err(self.err("unterminated start tag")),
                }
            }
            if self_closing {
                if open.is_empty() {
                    return Ok(());
                }
            } else {
                open.push(name);
            }

            // Content events of the innermost open element, until a child
            // start tag re-enters the outer loop or everything is closed.
            loop {
                if self.starts_with("</") {
                    self.pos += 2;
                    let end_name = self.parse_name()?.to_owned();
                    // Invariant: the content loop only runs with at least one
                    // open element (self-closing roots returned above).
                    let name = open.pop().expect("open element stack non-empty");
                    if end_name != name {
                        return Err(self.err(format!(
                            "mismatched end tag: expected `</{name}>`, found `</{end_name}>`"
                        )));
                    }
                    self.skip_ws();
                    self.expect(">")?;
                    self.builder.close();
                    if open.is_empty() {
                        return Ok(());
                    }
                } else if self.starts_with("<!--") {
                    let start = self.pos + 4;
                    let end = find(self.bytes, start, "-->")
                        .ok_or_else(|| self.err("unterminated comment"))?;
                    let content = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in comment"))?;
                    self.builder.comment(content);
                    self.pos = end + 3;
                } else if self.starts_with("<![CDATA[") {
                    let start = self.pos + 9;
                    let end = find(self.bytes, start, "]]>")
                        .ok_or_else(|| self.err("unterminated CDATA section"))?;
                    let content = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in CDATA"))?;
                    self.builder.text(content);
                    self.pos = end + 3;
                } else if self.starts_with("<?") {
                    self.pos += 2;
                    let target = self.parse_name()?.to_owned();
                    let target_id = self.pool.intern(&target);
                    let start = self.pos;
                    let end =
                        find(self.bytes, start, "?>").ok_or_else(|| self.err("unterminated PI"))?;
                    let content = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in PI"))?
                        .trim_start();
                    self.builder.processing_instruction(target_id, content);
                    self.pos = end + 2;
                } else if self.starts_with("<") {
                    continue 'start_tag;
                } else if self.peek().is_none() {
                    let name = open.last().expect("open element stack non-empty");
                    return Err(self.err(format!("unexpected end of input inside `<{name}>`")));
                } else {
                    // Character data up to the next `<`.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'<') {
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in character data"))?;
                    let text = decode_entities(raw).map_err(|m| self.err(m))?;
                    self.builder.text(&text);
                }
            }
        }
    }
}

fn find(haystack: &[u8], from: usize, needle: &str) -> Option<usize> {
    let n = needle.as_bytes();
    haystack[from..]
        .windows(n.len())
        .position(|w| w == n)
        .map(|i| from + i)
}

/// Decode the predefined entities and numeric character references.
pub fn decode_entities(raw: &str) -> Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| format!("unterminated entity reference in `{raw}`"))?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let cp = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad hex character reference `&{entity};`"))?;
                out.push(char::from_u32(cp).ok_or("invalid code point")?);
            }
            _ if entity.starts_with('#') => {
                let cp = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference `&{entity};`"))?;
                out.push(char::from_u32(cp).ok_or("invalid code point")?);
            }
            _ => return Err(format!("unknown entity `&{entity};`")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    fn parse(s: &str) -> (Document, NamePool) {
        let mut pool = NamePool::new();
        let doc = parse_document(s, &mut pool).unwrap();
        doc.check_invariants().unwrap();
        (doc, pool)
    }

    #[test]
    fn parses_figure1_fragment() {
        let (doc, pool) = parse("<a><b><c/><d/></b><c/></a>");
        // doc node + 5 elements
        assert_eq!(doc.len(), 6);
        assert_eq!(doc.kind(0), NodeKind::Document);
        let names: Vec<&str> = (1..6).map(|p| pool.resolve(doc.name(p))).collect();
        assert_eq!(names, vec!["a", "b", "c", "d", "c"]);
        assert_eq!(doc.size(1), 4);
    }

    #[test]
    fn parses_attributes_and_text() {
        let (doc, pool) = parse(r#"<e pos="1" kind='x'>hello</e>"#);
        assert_eq!(doc.len(), 5);
        assert_eq!(doc.kind(2), NodeKind::Attribute);
        assert_eq!(pool.resolve(doc.name(2)), "pos");
        assert_eq!(doc.text(2), Some("1"));
        assert_eq!(doc.text(3), Some("x"));
        assert_eq!(doc.kind(4), NodeKind::Text);
        assert_eq!(doc.text(4), Some("hello"));
    }

    #[test]
    fn decodes_entities() {
        let (doc, _) = parse("<e a=\"&lt;&#65;&#x42;\">&amp;ok&gt;</e>");
        // pre 0 = document node, 1 = <e>, 2 = @a, 3 = text
        assert_eq!(doc.text(2), Some("<AB"));
        assert_eq!(doc.text(3), Some("&ok>"));
    }

    #[test]
    fn skips_prolog_and_doctype() {
        let (doc, _) = parse("<?xml version=\"1.0\"?><!DOCTYPE a><!-- hi --><a>x</a><!-- bye -->");
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.text(2), Some("x"));
    }

    #[test]
    fn cdata_and_comments_and_pi() {
        let (doc, pool) = parse("<a><![CDATA[1<2]]><!--c--><?t  data?></a>");
        assert_eq!(doc.kind(2), NodeKind::Text);
        assert_eq!(doc.text(2), Some("1<2"));
        assert_eq!(doc.kind(3), NodeKind::Comment);
        assert_eq!(doc.text(3), Some("c"));
        assert_eq!(doc.kind(4), NodeKind::ProcessingInstruction);
        assert_eq!(pool.resolve(doc.name(4)), "t");
        assert_eq!(doc.text(4), Some("data"));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let mut pool = NamePool::new();
        let err = parse_document("<a><b></a></b>", &mut pool).unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut pool = NamePool::new();
        assert!(parse_document("<a/>junk", &mut pool).is_err());
    }

    #[test]
    fn rejects_unterminated_input() {
        let mut pool = NamePool::new();
        assert!(parse_document("<a><b>", &mut pool).is_err());
        assert!(parse_document("<a", &mut pool).is_err());
    }
}
