//! # dr-simmatch — similarity matching substrate
//!
//! Implements the matching operations (`sim(u)`, §II-B of the paper) and the
//! signature-based indexes that make similarity matching fast (§IV-B(2)):
//!
//! * [`edit_distance()`] / [`within`] — full Levenshtein and the threshold
//!   check (bit-parallel, banded DP past 64 chars);
//! * [`SimFn`] — the per-node matching operation (`=`, `ED,k`, `JAC,t`,
//!   `COS,t`);
//! * [`SignatureIndex`] — PASS-JOIN partition signatures for threshold
//!   edit-distance retrieval with no false negatives;
//! * [`MatchIndex`] — a unified index dispatching on the `SimFn`.

#![warn(missing_docs)]

pub mod edit_distance;
pub mod index;
pub mod normalize;
pub mod passjoin;
pub mod setsim;
pub mod simfn;
pub mod tokens;

pub use edit_distance::{edit_distance, within, within_bool};
pub use index::MatchIndex;
pub use normalize::{eq_normalized, normalize};
pub use passjoin::{Match, SignatureIndex};
pub use setsim::{cosine, jaccard, overlap};
pub use simfn::{ParseSimFnError, SimFn};
pub use tokens::{qgrams, token_set, word_tokens};
