//! Heterogeneous information network (HIN) substrate.
//!
//! A HIN `G = (V, E, W)` (§2.1 of the GenClus paper) is a directed graph in
//! which every object has an *object type* (`τ: V → A`), every link has a
//! *link type* / relation (`φ: E → R`) and a positive weight, and objects
//! carry observation lists for a set of attributes — term bags for text
//! attributes, value lists for numerical attributes. Attributes are
//! *incomplete*: an object type may lack an attribute entirely, and an object
//! may have zero observations even when its type carries the attribute.
//!
//! The crate provides:
//!
//! * [`ids`] — dense integer newtypes for objects / object types / relations
//!   / attributes (hot paths index vectors, never hash);
//! * [`arena`] — [`arena::NameArena`] + [`arena::NameIndex`], the interned
//!   object-name storage: all names of a graph live in **one** contiguous
//!   byte buffer addressed by a `u32` offset table, and the name → id index
//!   stores only object ids (the arena is the key storage). Invariants:
//!   offsets are monotone with `offsets[0] == 0` and
//!   `offsets[n] == bytes.len()`; every span is valid UTF-8 (re-validated
//!   per span on decode); counts and byte lengths fit `u32` (enforced via
//!   [`error::HinError::CapacityExceeded`]); duplicate names resolve to the
//!   **first** registration. [`delta::GraphDelta`] interns new names into
//!   its own delta arena, bulk-merged into the graph arena at append time;
//! * [`schema`] — the type system: object types, relations with typed
//!   endpoints, attribute declarations;
//! * [`graph`] — [`graph::HinGraph`] with CSR out-link and in-link
//!   adjacency, each out segment grouped by relation in link insertion
//!   order;
//! * [`builder`] — [`builder::HinBuilder`], the validated construction path;
//! * [`delta`] — [`delta::GraphDelta`], incremental growth: append new
//!   objects, links (from new *or* pre-existing sources, to new or
//!   pre-existing targets), and observations without a full rebuild —
//!   one canonical merge whose result equals a from-scratch build of the
//!   same history;
//! * [`codec`] — `to_bytes` / `from_bytes` for [`schema::Schema`] and
//!   [`graph::HinGraph`], the hooks under the `genclus-serve` snapshot
//!   format;
//! * [`attributes`] — per-attribute observation storage;
//! * [`stats`] — descriptive statistics used by examples and the experiment
//!   harness;
//! * [`error`] — [`error::HinError`].
//!
//! # Example
//!
//! ```
//! use genclus_hin::prelude::*;
//!
//! let mut schema = Schema::new();
//! let author = schema.add_object_type("author");
//! let paper = schema.add_object_type("paper");
//! let writes = schema.add_relation("writes", author, paper);
//! let text = schema.add_categorical_attribute("title_terms", 8);
//!
//! let mut b = HinBuilder::new(schema);
//! let a0 = b.add_object(author, "alice");
//! let p0 = b.add_object(paper, "paper-0");
//! b.add_link(a0, p0, writes, 1.0).unwrap();
//! b.add_term_count(p0, text, 3, 2.0).unwrap(); // term #3 appears twice
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.n_objects(), 2);
//! assert_eq!(g.out_links(a0).count(), 1);
//! ```

pub mod arena;
pub mod attributes;
pub mod builder;
pub mod codec;
pub mod delta;
pub mod error;
pub mod graph;
pub mod ids;
pub mod schema;
pub mod stats;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::arena::{NameArena, NameIndex};
    pub use crate::attributes::{AttributeData, AttributeStore};
    pub use crate::builder::HinBuilder;
    pub use crate::delta::GraphDelta;
    pub use crate::error::HinError;
    pub use crate::graph::{HinGraph, Link};
    pub use crate::ids::{AttributeId, ObjectId, ObjectTypeId, RelationId};
    pub use crate::schema::{AttributeKind, RelationDef, Schema};
    pub use crate::stats::NetworkStats;
}

pub use prelude::*;
