//! # dr-core — detective rules
//!
//! The primary contribution of *Cleaning Relations using Knowledge Bases*
//! (Hao, Tang, Li, Li — ICDE 2017): **detective rules (DRs)**, graph-shaped
//! cleaning rules that connect a relation to an RDF knowledge base and
//! simultaneously model a column's *positive* semantics (how correct values
//! link to the rest of the tuple) and *negative* semantics (how wrong values
//! connect to correct ones). A DR can mark values correct, detect an error
//! precisely, and draw its repair from the KB — deterministically, without
//! heuristics.
//!
//! The crate provides:
//!
//! * [`graph::schema`] / [`graph::instance`] — schema- and instance-level
//!   matching graphs (§II-B);
//! * [`rule`] — the [`DetectiveRule`] type, rule
//!   generation by example (§III-A), and consistency analysis (§III-C);
//! * [`repair`] — the basic chase (`bRepair`, Algorithm 1), the fast repair
//!   (`fRepair`, Algorithm 2) with rule-order selection and inverted
//!   indexes, and multi-version repairs (§IV);
//! * [`fixtures`] — the paper's running example (Table I, Figure 4).

#![warn(missing_docs)]

pub mod context;
pub mod fixtures;
pub mod graph;
mod obs;
pub mod repair;
pub mod rule;

pub use context::{IndexMemo, MatchContext};
pub use graph::schema::{NodeType, SchemaGraph, SchemaNode};
pub use repair::basic::PhaseTimings;
pub use repair::basic::{
    basic_repair, basic_repair_tuple, RelationReport, RepairStep, TupleReport,
};
pub use repair::budget::{BudgetExhaustion, BudgetMeter, ExhaustCause, RepairBudget};
pub use repair::cache::{ElementCache, ElementCacheStats};
pub use repair::fast::{fast_repair, FastRepairer};
#[cfg(feature = "fault-injection")]
pub use repair::fault::{Fault, FaultPlan, FaultSpec};
pub use repair::multi::{multi_repair_tuple, MultiOptions};
pub use repair::parallel::{
    available_cores, parallel_repair, parallel_repair_selective, ParallelOptions,
};
pub use repair::registry::{
    CacheKey, CacheRegistry, RegistryConfig, RegistryStats, SnapshotGcConfig, SnapshotStats,
};
pub use repair::resilience::{BudgetHistogram, ResilienceReport, TupleOutcome};
pub use repair::rule_graph::RuleGraph;
pub use repair::snapshot::{SnapshotError, SnapshotKey, SnapshotPayload};
pub use repair::value_cache::{CacheStats, ValueCache};
pub use rule::apply::{
    apply_rule, apply_rule_cached, ApplyOptions, Normalization, RuleApplication,
};
pub use rule::consistency::{
    check_consistency, check_consistency_multi, contending_pairs, Consistency,
};
pub use rule::generation::{
    discover_graph, generate_rules, rule_repairs_examples, rule_respects_positives,
    DiscoveredGraph, GeneratedRule, GenerationConfig,
};
pub use rule::text::{parse_rules, rules_to_text, RuleTextError};
pub use rule::{DetectiveRule, RuleEdge, RuleError, RuleNodeRef};
