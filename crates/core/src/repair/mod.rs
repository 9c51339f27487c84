//! Repair algorithms: the chase-based basic repair (Algorithm 1), the fast
//! repair with rule ordering and inverted indexes (Algorithm 2), and
//! multi-version repairs (§IV).

pub mod basic;
pub mod budget;
pub mod cache;
pub mod fast;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod multi;
pub mod parallel;
mod read_index;
pub mod registry;
pub mod resilience;
pub mod rule_graph;
pub mod snapshot;
pub mod value_cache;
