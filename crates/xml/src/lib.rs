//! XML data model substrate for the eXrQuy reproduction.
//!
//! This crate implements the XML infoset subset that the paper's compiler
//! (Pathfinder) operates on:
//!
//! * ordered, unranked trees of XML nodes stored in a *pre/size/level*
//!   encoding (the paper's Figure 5 identifies nodes with their preorder
//!   rank; we additionally keep subtree sizes and depths, the encoding used
//!   by staircase join \[Grust et al., VLDB 2003\]),
//! * a small, dependency-free XML parser and serializer,
//! * a [`builder::TreeBuilder`] shared by the parser, the XMark document
//!   generator, and the runtime node constructors, and
//! * XPath axis evaluation over the encoding ([`axis`]), with both a
//!   *staircase join* implementation (what MonetDB/XQuery plugs into the
//!   step operator) and a naive reference implementation used for
//!   differential testing.
//!
//! Node identifiers ([`NodeId`]) are pairs of a fragment id and a preorder
//! rank; comparing them lexicographically yields document order, with newly
//! constructed fragments ordered after all earlier ones (XQuery leaves the
//! relative order of distinct trees implementation-defined, but it must be
//! *stable*, which this is).

pub mod atomize;
pub mod axis;
pub mod builder;
pub mod catalog;
pub mod name;
pub mod parse;
pub mod rng;
pub mod serialize;
pub mod stats;
pub mod tree;

pub use axis::{Axis, NodeTest};
pub use builder::TreeBuilder;
pub use catalog::{Catalog, CatalogBuilder, FragArena, NodeId, NodeRead};
pub use name::{NameId, NamePool};
pub use parse::{parse_document, parse_document_with, ParseError, DEFAULT_MAX_DEPTH};
pub use stats::{CatalogStats, FragStats};
pub use tree::{Document, NodeKind};
