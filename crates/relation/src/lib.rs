//! # dr-relation — relational substrate
//!
//! Tables for the detective-rules reproduction: schemas, tuples with
//! per-cell positive marks (`value⁺` in the paper), CSV interchange, the
//! paper's noise model (typos + semantic errors at rate `e%`), and
//! ground-truth bookkeeping for repair evaluation.
//!
//! ```
//! use dr_relation::{Relation, Schema};
//!
//! let schema = Schema::new("Nobel", &["Name", "City"]);
//! let mut relation = Relation::new(schema);
//! relation.push_strs(&["Avram Hershko", "Karcag"]);
//!
//! let city = relation.schema().attr_expect("City");
//! relation.tuple_mut(0).set(city, "Haifa");
//! relation.tuple_mut(0).mark_positive(city);
//! assert!(relation.tuple(0).is_positive(city));
//! ```

#![warn(missing_docs)]
// Resilience hygiene (DESIGN.md §4c): library code must surface failures as
// typed errors, not panics. `.expect()` stays available for genuine
// invariants — the message documents why the panic cannot fire.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod csv;
pub mod ground_truth;
pub mod noise;
pub mod relation;
pub mod schema;
pub mod tuple;

pub use ground_truth::GroundTruth;
pub use noise::{inject, ColumnSwapSource, ErrorKind, InjectedError, NoiseSpec, SemanticSource};
pub use relation::{CellRef, Relation};
pub use schema::{AttrId, Schema};
pub use tuple::{Mark, Tuple};
