//! # dr-kb — RDF knowledge-base substrate
//!
//! The knowledge-base layer of the *detective rules* reproduction
//! (Hao et al., *Cleaning Relations using Knowledge Bases*, ICDE 2017).
//!
//! A KB (§II-A of the paper) is a set of triples `(s, p, o)`:
//! `s` an **instance**, `p` a **relationship** (instance → instance) or a
//! **property** (instance → literal), `o` an instance or a **literal**.
//! Instances are typed with **classes**, arranged in a `subClassOf`
//! [`Taxonomy`]. Detective rules match relation tuples against this graph, so
//! the store is optimized for the queries that dominate rule evaluation:
//!
//! * `instances_of(class)` with taxonomy closure — the candidate set for a
//!   rule node;
//! * `objects(s, p)` / `subjects(o, p)` — the structural constraints of rule
//!   edges and the source of corrections;
//! * `has_edge(s, p, o)` — O(log n) edge membership;
//! * `instances_labeled(v)` — exact-match (`sim: =`) node matching.
//!
//! Construction goes through [`KbBuilder`]; once
//! [`finalized`](KbBuilder::finalize) the KB is immutable and cheap to share
//! across threads.
//!
//! ```
//! use dr_kb::{KbBuilder, Node};
//!
//! let mut b = KbBuilder::new();
//! let city = b.class("city");
//! let country = b.class("country");
//! let located_in = b.pred("locatedIn");
//! let haifa = b.instance("Haifa");
//! let israel = b.instance("Israel");
//! b.set_type(haifa, city);
//! b.set_type(israel, country);
//! b.edge(haifa, located_in, israel);
//! let kb = b.finalize().unwrap();
//!
//! assert!(kb.has_edge(haifa, located_in, Node::Instance(israel)));
//! assert_eq!(kb.instances_of(city), &[haifa]);
//! ```

#![warn(missing_docs)]
// Resilience hygiene (DESIGN.md §4c): library code must surface failures as
// typed errors, not panics. `.expect()` stays available for genuine
// invariants — the message documents why the panic cannot fire.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod content_hash;
pub mod delta;
pub mod fixtures;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod image;
pub mod mapped;
pub mod mmapfile;
pub mod ntriples;
pub mod quarantine;
pub mod stats;
pub mod symbol;
pub mod taxonomy;
pub mod view;

pub use content_hash::content_hash_of;
pub use delta::{DeltaNode, DeltaOp, DeltaParseError, KbDelta, KbFootprint, Region};
pub use graph::{KbBuilder, KbError, KnowledgeBase};
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{ClassId, InstanceId, LiteralId, Node, PredId};
pub use image::{pack, write_image, KbImageError};
pub use mapped::MappedKb;
pub use quarantine::{strip_bom, Diagnostic, LenientOptions, Quarantine};
pub use stats::{pred_kind, stats, KbStats, PredKind};
pub use symbol::{Symbol, SymbolTable};
pub use taxonomy::Taxonomy;
pub use view::KbRef;
