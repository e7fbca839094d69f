//! A small, dependency-free, non-validating XML parser.
//!
//! Supports the XML subset needed by `fn:doc()` over XMark-style documents:
//! elements, attributes, character data, CDATA sections, comments,
//! processing instructions, the five predefined entities and numeric
//! character references, and an optional XML declaration / doctype line
//! (skipped). Namespaces are treated lexically (a name may contain `:`); no
//! prefix resolution is performed, matching the paper's use of plain tag
//! names.
//!
//! A token costs a scan, not an allocation: names are slices of the
//! input (every token boundary is an ASCII byte, so slicing the `&str`
//! needs no re-validation), character data and attribute values are
//! borrowed unless they contain a reference, and the one copy of a value
//! is its bytes appended to the document's text arena, reserved once
//! from the input's length.

use crate::builder::TreeBuilder;
use crate::name::{NameId, NamePool};
use crate::tree::Document;
use exrquy_diag::ErrorCode;
use std::borrow::Cow;
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
    /// `EXRQ0003` for nesting-depth overflow and inputs past 4 GiB).
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
    check_input_len(input.len())?;
    let mut p = Parser {
        input,
        pos: 0,
        names: NameMemo::new(pool),
        builder: TreeBuilder::new_document(),
        max_depth,
        attr_owner: Vec::new(),
    };
    // Size the six columns once instead of growing each by doubling:
    // every element and every text run meets a `<`, every attribute an
    // `=`, so this count lands within a few per cent of the node count
    // on markup like XMark's. Text full of `=` or `<` inside comments and
    // CDATA overshoot it; the excess is given back once the node count is
    // known. Byte-wide sums over 255-byte chunks cannot overflow and keep
    // the loop vectorized.
    let markup: usize = input
        .as_bytes()
        .chunks(255)
        .map(|c| {
            c.iter()
                .fold(0u8, |n, &b| n + u8::from(b == b'<' || b == b'=')) as usize
        })
        .sum();
    p.builder.reserve(markup);
    // Decoded values never outgrow the bytes they were read from; the
    // unused part of the reservation is given back at the end.
    p.builder.reserve_text(input.len(), markup);
    p.skip_prolog()?;
    p.parse_element()?;
    p.skip_misc();
    if p.pos != input.len() {
        return Err(p.err("trailing content after document element"));
    }
    let mut doc = p.builder.finish();
    doc.shrink_excess();
    Ok(doc)
}

/// A document's pre ranks and text offsets are `u32`, and neither its
/// node count nor its decoded text can exceed its input's byte length:
/// an input that fits in `u32` fits the encoding.
fn check_input_len(len: usize) -> Result<(), ParseError> {
    match u32::try_from(len) {
        Ok(_) => Ok(()),
        Err(_) => Err(ParseError {
            // The first byte past the limit.
            offset: u32::MAX as usize + 1,
            message: format!("document of {len} bytes exceeds the 4 GiB limit"),
            code: ErrorCode::EXRQ0003,
            source: None,
        }),
    }
}

/// Slots of the parser-local name memo (a power of two, sparse enough
/// that a document's few dozen distinct names rarely share a slot).
const MEMO_BITS: u32 = 10;

/// A direct-mapped cache in front of the [`NamePool`]. A document repeats
/// a few dozen names hundreds of thousands of times; a hit costs a short
/// FNV-1a hash and one string comparison instead of a SipHash lookup.
/// Every hit is checked by equality, so a name that collides simply
/// misses and goes to the pool: the memo's hash only picks a slot, and
/// the pool's hasher is the one that faces untrusted names.
struct NameMemo<'a, 'p> {
    pool: &'p mut NamePool,
    slots: Vec<(&'a str, NameId)>,
}

impl<'a, 'p> NameMemo<'a, 'p> {
    fn new(pool: &'p mut NamePool) -> Self {
        // Names are never empty, so an unused slot never matches.
        let slots = vec![("", NameId::NONE); 1 << MEMO_BITS];
        NameMemo { pool, slots }
    }

    fn intern(&mut self, name: &'a str) -> NameId {
        let h = name.bytes().fold(0x811c_9dc5_u32, |h, b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        // FNV's low bits mix poorly; a Fibonacci multiply moves the
        // well-mixed high bits into the index.
        let slot = &mut self.slots[(h.wrapping_mul(0x9e37_79b9) >> (32 - MEMO_BITS)) as usize];
        if slot.0 != name {
            *slot = (name, self.pool.intern(name));
        }
        slot.1
    }
}

struct Parser<'a, 'p> {
    input: &'a str,
    pos: usize,
    names: NameMemo<'a, 'p>,
    builder: TreeBuilder,
    max_depth: usize,
    /// Indexed by `NameId`: the pre rank of the element whose start tag
    /// last carried an attribute of that name (0, the document node, for
    /// none). One compare per attribute enforces *Unique Att Spec*, so a
    /// start tag with thousands of attributes stays linear.
    attr_owner: Vec<u32>,
}

impl<'a> Parser<'a, '_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        self.err_at(self.pos, msg)
    }

    fn err_at(&self, offset: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: msg.into(),
            code: ErrorCode::FODC0006,
            source: None,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
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

    /// Byte offset of the next `needle` at or after `from`.
    fn find(&self, from: usize, needle: &str) -> Option<usize> {
        self.input[from..].find(needle).map(|i| from + i)
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
        match self.find(self.pos, end) {
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

    /// The name at the cursor, as a slice of the input. Multi-byte
    /// characters are accepted wholesale (`b >= 0x80`), so the name ends
    /// at an ASCII byte or at the end of the input: a char boundary.
    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        if !self.peek().is_some_and(|b| Self::is_name_byte(b, true)) {
            return Err(self.err("expected a name"));
        }
        while self.peek().is_some_and(|b| Self::is_name_byte(b, false)) {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parse one element (the document root) and everything inside it.
    ///
    /// Iterative with an explicit stack of open element names: nesting
    /// depth is heap-bounded (and budget-checked against `max_depth`)
    /// instead of consuming a native stack frame per level, so hostile
    /// deeply-nested input cannot overflow the stack no matter how small
    /// the calling thread's stack is.
    fn parse_element(&mut self) -> Result<(), ParseError> {
        let mut open: Vec<&'a str> = Vec::new();
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
            let name = self.parse_name()?;
            let element = self.builder.open_element(self.names.intern(name));

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
                    Some(_) => self.parse_attribute(element)?,
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
                if self.peek().is_some_and(|b| b != b'<') {
                    // Character data up to the next `<`.
                    let start = self.pos;
                    self.pos = self.input[start..]
                        .find('<')
                        .map_or(self.input.len(), |i| start + i);
                    let text =
                        decode_entities(&self.input[start..self.pos]).map_err(|m| self.err(m))?;
                    self.builder.text(&text);
                } else if self.starts_with("</") {
                    self.pos += 2;
                    let end_name = self.parse_name()?;
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
                    let end = self
                        .find(start, "-->")
                        .ok_or_else(|| self.err("unterminated comment"))?;
                    self.builder.comment(&self.input[start..end]);
                    self.pos = end + 3;
                } else if self.starts_with("<![CDATA[") {
                    let start = self.pos + 9;
                    let end = self
                        .find(start, "]]>")
                        .ok_or_else(|| self.err("unterminated CDATA section"))?;
                    self.builder.text(&self.input[start..end]);
                    self.pos = end + 3;
                } else if self.starts_with("<?") {
                    self.pos += 2;
                    let target = self.parse_name()?;
                    let target = self.names.intern(target);
                    let start = self.pos;
                    let end = self
                        .find(start, "?>")
                        .ok_or_else(|| self.err("unterminated PI"))?;
                    let content = self.input[start..end].trim_start();
                    self.builder.processing_instruction(target, content);
                    self.pos = end + 2;
                } else if self.starts_with("<") {
                    continue 'start_tag;
                } else {
                    let name = open.last().expect("open element stack non-empty");
                    return Err(self.err(format!("unexpected end of input inside `<{name}>`")));
                }
            }
        }
    }

    /// One `name="value"` of the start tag of `element` (its pre rank).
    fn parse_attribute(&mut self, element: u32) -> Result<(), ParseError> {
        let start = self.pos;
        let name = self.parse_name()?;
        let id = self.names.intern(name);
        let slot = id.0 as usize;
        if slot >= self.attr_owner.len() {
            self.attr_owner.resize(slot + 1, 0);
        }
        if std::mem::replace(&mut self.attr_owner[slot], element) == element {
            return Err(self.err_at(start, format!("duplicate attribute `{name}`")));
        }
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let raw_start = self.pos;
        self.pos = self.bytes()[raw_start..]
            .iter()
            .position(|&b| b == quote || b == b'<')
            .map_or(self.input.len(), |i| raw_start + i);
        if self.peek() == Some(b'<') {
            return Err(self.err("`<` in attribute value"));
        }
        let value = decode_entities(&self.input[raw_start..self.pos]).map_err(|m| self.err(m))?;
        if self.peek() != Some(quote) {
            return Err(self.err(format!("expected `{}`", quote as char)));
        }
        self.pos += 1;
        self.builder.attribute(id, &value);
        Ok(())
    }
}

/// Decode the predefined entities and numeric character references.
/// Text without a `&` comes back borrowed. A character reference must
/// name an XML `Char` (so `&#0;` is an error, not a NUL).
pub fn decode_entities(raw: &str) -> Result<Cow<'_, str>, String> {
    let Some(first) = raw.find('&') else {
        return Ok(Cow::Borrowed(raw));
    };
    let mut out = String::with_capacity(raw.len());
    out.push_str(&raw[..first]);
    let mut rest = &raw[first..];
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
                out.push(xml_char(cp, entity)?);
            }
            _ if entity.starts_with('#') => {
                let cp = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference `&{entity};`"))?;
                out.push(xml_char(cp, entity)?);
            }
            _ => return Err(format!("unknown entity `&{entity};`")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// The character a reference names, if the XML `Char` production admits
/// it: tab, newline, carriage return, and every scalar value from U+0020
/// except U+FFFE and U+FFFF.
fn xml_char(cp: u32, entity: &str) -> Result<char, String> {
    let c = char::from_u32(cp).ok_or("invalid code point")?;
    match c {
        '\t' | '\n' | '\r' | ' '..='\u{FFFD}' | '\u{10000}'.. => Ok(c),
        _ => Err(format!(
            "character reference `&{entity};` is not an XML character"
        )),
    }
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

    fn parse_err(s: &str) -> ParseError {
        parse_document(s, &mut NamePool::new()).unwrap_err()
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
    fn decode_borrows_text_without_references() {
        assert!(matches!(
            decode_entities("plain"),
            Ok(Cow::Borrowed("plain"))
        ));
        assert_eq!(decode_entities("a&amp;b").unwrap(), "a&b");
        // The XML `Char` production, at each of its edges.
        for ok in [
            "&#9;",
            "&#xA;",
            "&#13;",
            "&#32;",
            "&#xD7FF;",
            "&#xE000;",
            "&#xFFFD;",
            "&#x10000;",
            "&#x10FFFF;",
        ] {
            assert!(decode_entities(ok).is_ok(), "{ok}");
        }
        for bad in ["&#0;", "&#x1F;", "&#xFFFE;", "&#xFFFF;"] {
            let err = decode_entities(bad).unwrap_err();
            assert!(err.contains("is not an XML character"), "{bad}: {err}");
        }
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
    fn multi_byte_names_values_and_text_are_sliced_whole() {
        let (doc, pool) = parse("<ä β=\"γ\">δ&amp;ε<ö/>ü</ä>");
        assert_eq!(pool.resolve(doc.name(1)), "ä");
        assert_eq!(doc.kind(2), NodeKind::Attribute);
        assert_eq!(pool.resolve(doc.name(2)), "β");
        assert_eq!(doc.text(2), Some("γ"));
        assert_eq!(doc.text(3), Some("δ&ε"));
        assert_eq!(pool.resolve(doc.name(4)), "ö");
        assert_eq!(doc.text(5), Some("ü"));
        // A multi-byte end tag must still match its start tag exactly.
        let err = parse_err("<ä></äx>");
        assert_eq!(
            err.message,
            "mismatched end tag: expected `</ä>`, found `</äx>`"
        );
    }

    /// `(input, code, offset, message)` of malformed documents, recorded
    /// from the allocation-per-token parser this one replaced: the
    /// rewrite reports every one of them identically.
    #[test]
    fn malformed_inputs_keep_their_code_offset_and_message() {
        use ErrorCode::{EXRQ0003, FODC0006};
        let deep = format!("{}{}", "<e>".repeat(513), "</e>".repeat(513));
        let cases: &[(&str, ErrorCode, usize, &str)] = &[
            (
                "<a><b></a></b>",
                FODC0006,
                9,
                "mismatched end tag: expected `</b>`, found `</a>`",
            ),
            ("<a", FODC0006, 2, "unterminated start tag"),
            ("<a b=\"x", FODC0006, 7, "expected `\"`"),
            ("<a><!-- x</a>", FODC0006, 3, "unterminated comment"),
            (
                "<a><![CDATA[x</a>",
                FODC0006,
                3,
                "unterminated CDATA section",
            ),
            ("<a><?pi x</a>", FODC0006, 7, "unterminated PI"),
            ("<a>&nope;</a>", FODC0006, 9, "unknown entity `&nope;`"),
            (
                "<a>&#xZZ;</a>",
                FODC0006,
                9,
                "bad hex character reference `&#xZZ;`",
            ),
            (
                "<a>&amp</a>",
                FODC0006,
                7,
                "unterminated entity reference in `&amp`",
            ),
            ("<a>&#xD800;</a>", FODC0006, 11, "invalid code point"),
            (
                &deep,
                EXRQ0003,
                1536,
                "element nesting exceeds depth limit 512",
            ),
            (
                "<a/>junk",
                FODC0006,
                4,
                "trailing content after document element",
            ),
            (
                "<a><b>",
                FODC0006,
                6,
                "unexpected end of input inside `<b>`",
            ),
            ("<a foo></a>", FODC0006, 6, "expected `=`"),
            (
                "<a foo=bar/>",
                FODC0006,
                7,
                "expected quoted attribute value",
            ),
            ("<>x</>", FODC0006, 1, "expected a name"),
            ("", FODC0006, 0, "expected `<`"),
            (
                "<a/><b/>",
                FODC0006,
                4,
                "trailing content after document element",
            ),
            ("<a x=\"1\"/", FODC0006, 8, "expected `/>`"),
            ("<a></a", FODC0006, 6, "expected `>`"),
            (
                "<!-- x",
                FODC0006,
                0,
                "unterminated construct, expected `-->`",
            ),
            ("<a b='&bogus;'/>", FODC0006, 13, "unknown entity `&bogus;`"),
        ];
        for &(input, code, offset, message) in cases {
            let err = parse_err(input);
            let shown = &input[..input.len().min(24)];
            assert_eq!(
                (err.code, err.offset, err.message.as_str()),
                (code, offset, message),
                "{shown:?}"
            );
        }
    }

    /// Well-formedness constraints the parser enforces beyond the syntax
    /// above (each of these loaded without complaint before).
    #[test]
    fn rejects_well_formedness_violations() {
        let cases: &[(&str, usize, &str)] = &[
            // WFC: Unique Att Spec.
            ("<a x=\"1\" x=\"2\"/>", 9, "duplicate attribute `x`"),
            (
                "<a><b y='1' z='2' y='3'/></a>",
                18,
                "duplicate attribute `y`",
            ),
            // WFC: No < in Attribute Values.
            ("<a b=\"x<y\"/>", 7, "`<` in attribute value"),
            // Character references must name an XML `Char`.
            (
                "<a>&#0;</a>",
                7,
                "character reference `&#0;` is not an XML character",
            ),
            (
                "<a b='&#x1;'/>",
                11,
                "character reference `&#x1;` is not an XML character",
            ),
        ];
        for &(input, offset, message) in cases {
            let err = parse_err(input);
            assert_eq!(
                (err.code, err.offset, err.message.as_str()),
                (ErrorCode::FODC0006, offset, message),
                "{input:?}"
            );
        }
        // The same name on different elements, and on an element and its
        // child, is fine.
        let (doc, _) = parse("<a x='1'><b x='2' y='3'/><b x='4'/></a>");
        assert_eq!(doc.len(), 8);
    }

    #[test]
    fn ten_thousand_attributes_on_one_start_tag() {
        let mut xml = String::from("<a");
        for i in 0..10_000 {
            xml.push_str(&format!(" k{i}='{i}'"));
        }
        xml.push_str("/>");
        assert_eq!(parse(&xml).0.len(), 10_002);
        // A duplicate at the very end is still caught.
        xml.truncate(xml.len() - 2);
        xml.push_str(" k0='x'/>");
        assert!(parse_err(&xml).message.contains("duplicate attribute `k0`"));
    }

    #[test]
    fn markup_count_overshoot_is_given_back() {
        let xml = format!(
            "<a>{}<![CDATA[{}]]></a>",
            "=".repeat(10_000),
            "<".repeat(10_000)
        );
        let (doc, _) = parse(&xml);
        assert_eq!(doc.len(), 4);
        assert!(doc.kinds.capacity() < 100, "{}", doc.kinds.capacity());
        assert!(doc.texts.capacity() < 100, "{}", doc.texts.capacity());
    }

    #[test]
    fn inputs_past_u32_are_rejected_with_a_limit_error() {
        assert!(check_input_len(u32::MAX as usize).is_ok());
        let err = check_input_len(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.code, ErrorCode::EXRQ0003);
        assert_eq!(
            err.message,
            "document of 4294967296 bytes exceeds the 4 GiB limit"
        );
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
