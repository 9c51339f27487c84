//! Detective rules (§II-C).
//!
//! A detective rule merges two schema-level matching graphs that differ in a
//! single node over the same column: the **positive node** `p` captures the
//! column's correct semantics, the **negative node** `n` captures how wrong
//! values of that column connect to the rest of the tuple, and the shared
//! **evidence nodes** `Ve` anchor both sides.

pub mod apply;
pub mod consistency;
pub mod generation;
pub mod text;

use crate::graph::schema::{NodeType, SchemaGraph, SchemaGraphError, SchemaNode};
use apply::CompiledRule;
use dr_kb::{KnowledgeBase, PredId};
use dr_relation::{AttrId, Schema};
use dr_simmatch::SimFn;
use std::fmt;
use std::sync::Arc;

/// Refers to a node of a detective rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleNodeRef {
    /// Evidence node `Ve[i]`.
    Evidence(usize),
    /// The positive node `p`.
    Positive,
    /// The negative node `n`.
    Negative,
    /// Auxiliary node `aux[i]`: a KB-typed intermediate entity with no
    /// table column. Auxiliary nodes realize the paper's §II-C remark that
    /// single positive/negative *nodes* extend to *paths* — e.g. reaching
    /// the City column through an organization the schema does not contain.
    Aux(usize),
}

/// A directed, labeled edge of a detective rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleEdge {
    /// Source node.
    pub from: RuleNodeRef,
    /// Target node.
    pub to: RuleNodeRef,
    /// The KB relationship or property.
    pub rel: PredId,
}

/// Validation failures for a detective rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// `col(p) != col(n)`.
    PositiveNegativeColumnMismatch,
    /// Positive/negative column also appears among the evidence.
    RepairColumnInEvidence,
    /// Two evidence nodes share a column.
    DuplicateEvidenceColumn(AttrId),
    /// An edge references evidence index out of range.
    BadEvidenceIndex(usize),
    /// An edge connects `p` and `n` directly.
    PositiveNegativeEdge,
    /// A rule needs at least one evidence node.
    NoEvidence,
    /// An edge references an auxiliary index out of range.
    BadAuxIndex(usize),
    /// An auxiliary node appears in no edge.
    DanglingAux(usize),
    /// The positive side `Ve ∪ {p}` is invalid.
    BadPositiveSide(SchemaGraphError),
    /// The negative side `Ve ∪ {n}` is invalid.
    BadNegativeSide(SchemaGraphError),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::PositiveNegativeColumnMismatch => {
                write!(
                    f,
                    "positive and negative nodes must reference the same column"
                )
            }
            RuleError::RepairColumnInEvidence => {
                write!(f, "the repaired column may not also be an evidence column")
            }
            RuleError::DuplicateEvidenceColumn(a) => {
                write!(f, "two evidence nodes reference column {a:?}")
            }
            RuleError::BadEvidenceIndex(i) => write!(f, "edge references evidence index {i}"),
            RuleError::PositiveNegativeEdge => {
                write!(f, "an edge may not connect the positive and negative nodes")
            }
            RuleError::NoEvidence => write!(f, "a detective rule needs at least one evidence node"),
            RuleError::BadAuxIndex(i) => write!(f, "edge references auxiliary index {i}"),
            RuleError::DanglingAux(i) => write!(f, "auxiliary node {i} appears in no edge"),
            RuleError::BadPositiveSide(e) => write!(f, "positive side invalid: {e}"),
            RuleError::BadNegativeSide(e) => write!(f, "negative side invalid: {e}"),
        }
    }
}

impl std::error::Error for RuleError {}

/// A detective rule `G(Ve ∪ {p, n}, E)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectiveRule {
    name: String,
    evidence: Vec<SchemaNode>,
    positive: SchemaNode,
    negative: SchemaNode,
    /// KB types of the auxiliary (column-free, value-free) nodes.
    aux: Vec<NodeType>,
    edges: Vec<RuleEdge>,
    /// The pattern shapes and prefilter edges applying the rule reads,
    /// compiled once when the rule is validated (a function of the fields
    /// above).
    compiled: Arc<CompiledRule>,
}

impl DetectiveRule {
    /// Builds and validates a rule.
    ///
    /// # Errors
    /// See [`RuleError`]. Both `Ve ∪ {p}` and `Ve ∪ {n}` must be valid,
    /// connected schema-level matching graphs.
    pub fn new(
        name: impl Into<String>,
        evidence: Vec<SchemaNode>,
        positive: SchemaNode,
        negative: SchemaNode,
        edges: Vec<RuleEdge>,
    ) -> Result<Self, RuleError> {
        Self::with_aux(name, evidence, Vec::new(), positive, negative, edges)
    }

    /// [`DetectiveRule::new`] with auxiliary nodes: KB-typed intermediates
    /// with no table column, which both sides may route edges through
    /// (positive/negative *paths*, the §II-C extension).
    pub fn with_aux(
        name: impl Into<String>,
        evidence: Vec<SchemaNode>,
        aux: Vec<NodeType>,
        positive: SchemaNode,
        negative: SchemaNode,
        edges: Vec<RuleEdge>,
    ) -> Result<Self, RuleError> {
        if positive.col != negative.col {
            return Err(RuleError::PositiveNegativeColumnMismatch);
        }
        if evidence.is_empty() {
            return Err(RuleError::NoEvidence);
        }
        let mut cols = dr_kb::FxHashSet::default();
        for ev in &evidence {
            if ev.col == positive.col {
                return Err(RuleError::RepairColumnInEvidence);
            }
            if !cols.insert(ev.col) {
                return Err(RuleError::DuplicateEvidenceColumn(ev.col));
            }
        }
        let mut aux_used = vec![false; aux.len()];
        for e in &edges {
            for end in [e.from, e.to] {
                match end {
                    RuleNodeRef::Evidence(i) if i >= evidence.len() => {
                        return Err(RuleError::BadEvidenceIndex(i));
                    }
                    RuleNodeRef::Aux(i) => {
                        if i >= aux.len() {
                            return Err(RuleError::BadAuxIndex(i));
                        }
                        aux_used[i] = true;
                    }
                    _ => {}
                }
            }
            let touches_p = e.from == RuleNodeRef::Positive || e.to == RuleNodeRef::Positive;
            let touches_n = e.from == RuleNodeRef::Negative || e.to == RuleNodeRef::Negative;
            if touches_p && touches_n {
                return Err(RuleError::PositiveNegativeEdge);
            }
        }
        if let Some(i) = aux_used.iter().position(|&u| !u) {
            return Err(RuleError::DanglingAux(i));
        }
        let mut rule = Self {
            name: name.into(),
            evidence,
            positive,
            negative,
            aux,
            edges,
            compiled: Arc::default(),
        };
        if rule.aux.is_empty() {
            // Aux-free rules validate through the schema-graph machinery
            // (per-column uniqueness, literal-source edges, connectivity).
            rule.positive_graph()
                .validate()
                .map_err(RuleError::BadPositiveSide)?;
            rule.negative_graph()
                .validate()
                .map_err(RuleError::BadNegativeSide)?;
        } else {
            rule.validate_side_with_aux(true)
                .map_err(RuleError::BadPositiveSide)?;
            rule.validate_side_with_aux(false)
                .map_err(RuleError::BadNegativeSide)?;
        }
        rule.compiled = Arc::new(CompiledRule::new(&rule));
        Ok(rule)
    }

    /// Validates a side (positive when `positive_side`) of a rule with
    /// auxiliary nodes: literal nodes have no out-edges and the evidence
    /// plus the side's p/n node are connected through the side's edges
    /// (auxiliary nodes may carry the connection).
    fn validate_side_with_aux(&self, positive_side: bool) -> Result<(), SchemaGraphError> {
        let excluded = if positive_side {
            RuleNodeRef::Negative
        } else {
            RuleNodeRef::Positive
        };
        let kept = if positive_side {
            RuleNodeRef::Positive
        } else {
            RuleNodeRef::Negative
        };
        // Dense node numbering: evidence, kept, aux.
        let k = self.evidence.len();
        let number = |r: RuleNodeRef| -> Option<usize> {
            match r {
                RuleNodeRef::Evidence(i) => Some(i),
                r if r == kept => Some(k),
                RuleNodeRef::Aux(i) => Some(k + 1 + i),
                _ => None,
            }
        };
        let ty_of = |r: RuleNodeRef| -> NodeType {
            match r {
                RuleNodeRef::Evidence(i) => self.evidence[i].ty,
                RuleNodeRef::Positive => self.positive.ty,
                RuleNodeRef::Negative => self.negative.ty,
                RuleNodeRef::Aux(i) => self.aux[i],
            }
        };
        let total = k + 1 + self.aux.len();
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for e in &self.edges {
            if e.from == excluded || e.to == excluded {
                continue;
            }
            if ty_of(e.from) == NodeType::Literal {
                let idx = number(e.from).expect("side node");
                return Err(SchemaGraphError::EdgeFromLiteral(idx));
            }
            if let (Some(a), Some(b)) = (number(e.from), number(e.to)) {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
        }
        // Evidence and the kept node must share a component. Aux nodes only
        // used on the other side are exempt.
        let root = find(&mut parent, k);
        for i in 0..k {
            if find(&mut parent, i) != root {
                return Err(SchemaGraphError::Disconnected);
            }
        }
        Ok(())
    }

    /// The rule's compiled pattern shapes.
    pub(crate) fn compiled(&self) -> &CompiledRule {
        &self.compiled
    }

    /// The auxiliary node types (empty for plain rules).
    pub fn aux(&self) -> &[NodeType] {
        &self.aux
    }

    /// The rule's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The evidence nodes `Ve`.
    pub fn evidence(&self) -> &[SchemaNode] {
        &self.evidence
    }

    /// The positive node `p`.
    pub fn positive(&self) -> &SchemaNode {
        &self.positive
    }

    /// The negative node `n`.
    pub fn negative(&self) -> &SchemaNode {
        &self.negative
    }

    /// All edges.
    pub fn edges(&self) -> &[RuleEdge] {
        &self.edges
    }

    /// The column this rule can repair: `col(p) = col(n)`.
    pub fn repair_col(&self) -> AttrId {
        self.positive.col
    }

    /// The evidence columns `col(Ve)`, in evidence order.
    pub fn evidence_cols(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.evidence.iter().map(|n| n.col)
    }

    /// Columns this rule may **rewrite** when it applies: the repaired
    /// column `col(p)`, plus every evidence column matched with a
    /// non-exact similarity. Fuzzy-matched evidence cells are rewritten to
    /// their canonical KB label on success (see
    /// [`apply::ApplyOptions::normalize_fuzzy`]), so they are writes for
    /// dependency purposes — a rule checked earlier could be re-enabled by
    /// such a rewrite exactly like by a repair.
    pub fn write_cols(&self) -> Vec<AttrId> {
        let mut cols = vec![self.repair_col()];
        for n in &self.evidence {
            if n.sim != SimFn::Equal && !cols.contains(&n.col) {
                cols.push(n.col);
            }
        }
        cols
    }

    /// The largest column index the rule touches. A rule only applies to
    /// relations whose arity exceeds this (used to scope shared rule pools
    /// to compatible tables).
    pub fn max_col_index(&self) -> usize {
        self.evidence
            .iter()
            .map(|n| n.col.index())
            .chain([self.positive.col.index()])
            .max()
            .expect("rules have at least the positive column")
    }

    /// Columns marked positive when the rule applies: `col(Ve ∪ {p})`.
    pub fn marked_cols(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.evidence_cols().chain([self.repair_col()])
    }

    /// Edges that belong to the positive side (i.e. not touching `n`).
    pub fn positive_edges(&self) -> impl Iterator<Item = &RuleEdge> {
        self.edges
            .iter()
            .filter(|e| e.from != RuleNodeRef::Negative && e.to != RuleNodeRef::Negative)
    }

    /// Edges that belong to the negative side (i.e. not touching `p`).
    pub fn negative_edges(&self) -> impl Iterator<Item = &RuleEdge> {
        self.edges
            .iter()
            .filter(|e| e.from != RuleNodeRef::Positive && e.to != RuleNodeRef::Positive)
    }

    /// Edges internal to the evidence.
    pub fn evidence_edges(&self) -> impl Iterator<Item = &RuleEdge> {
        self.edges.iter().filter(|e| {
            matches!(e.from, RuleNodeRef::Evidence(_)) && matches!(e.to, RuleNodeRef::Evidence(_))
        })
    }

    fn side_graph(&self, keep: RuleNodeRef, node: &SchemaNode) -> SchemaGraph {
        let mut g = SchemaGraph::new();
        // Evidence nodes first (indexes 0..|Ve|), then the kept node.
        for ev in &self.evidence {
            g.add_node(*ev);
        }
        let kept = g.add_node(*node);
        let map = |r: RuleNodeRef| -> Option<usize> {
            match r {
                RuleNodeRef::Evidence(i) => Some(i),
                r if r == keep => Some(kept),
                _ => None,
            }
        };
        for e in &self.edges {
            if let (Some(from), Some(to)) = (map(e.from), map(e.to)) {
                g.add_edge(from, to, e.rel);
            }
        }
        g
    }

    /// The positive schema-level matching graph `GS₁ = Ve ∪ {p}`.
    /// Node indexes: evidence in order, then `p` last.
    pub fn positive_graph(&self) -> SchemaGraph {
        self.side_graph(RuleNodeRef::Positive, &self.positive)
    }

    /// The negative schema-level matching graph `GS₂ = Ve ∪ {n}`.
    /// Node indexes: evidence in order, then `n` last.
    pub fn negative_graph(&self) -> SchemaGraph {
        self.side_graph(RuleNodeRef::Negative, &self.negative)
    }

    /// Renders the rule for debugging against a KB and schema.
    pub fn render(&self, kb: &KnowledgeBase, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "rule {}:", self.name);
        let show = |n: &SchemaNode| {
            format!(
                "col={} type={} sim={}",
                schema.attr_name(n.col),
                n.ty.display(kb),
                n.sim
            )
        };
        for (i, ev) in self.evidence.iter().enumerate() {
            let _ = writeln!(out, "  e{i}: {}", show(ev));
        }
        let _ = writeln!(out, "  p:  {}", show(&self.positive));
        let _ = writeln!(out, "  n:  {}", show(&self.negative));
        for (i, ty) in self.aux.iter().enumerate() {
            let _ = writeln!(out, "  aux{i}: type={} (free)", ty.display(kb));
        }
        let tag = |r: RuleNodeRef| match r {
            RuleNodeRef::Evidence(i) => format!("e{i}"),
            RuleNodeRef::Positive => "p".into(),
            RuleNodeRef::Negative => "n".into(),
            RuleNodeRef::Aux(i) => format!("aux{i}"),
        };
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  {} -[{}]-> {}",
                tag(e.from),
                kb.pred_name(e.rel),
                tag(e.to)
            );
        }
        out
    }
}

/// Convenience constructors for [`SchemaNode`]s used when writing rules by
/// hand.
pub fn node(col: AttrId, ty: NodeType, sim: dr_simmatch::SimFn) -> SchemaNode {
    SchemaNode::new(col, ty, sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema};
    use dr_kb::fixtures::nobel_mini_kb;
    use dr_simmatch::SimFn;

    #[test]
    fn figure4_rules_validate() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].name(), "phi1");
        // Each rule's sides are valid connected graphs (checked in `new`).
    }

    #[test]
    fn phi1_shape() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = figure4_rules(&kb);
        let phi1 = &rules[0];
        assert_eq!(schema.attr_name(phi1.repair_col()), "Institution");
        let ev: Vec<&str> = phi1.evidence_cols().map(|c| schema.attr_name(c)).collect();
        assert_eq!(ev, vec!["Name", "DOB"]);
        assert_eq!(phi1.positive_edges().count(), 2); // Name→DOB, Name→p
        assert_eq!(phi1.negative_edges().count(), 2); // Name→DOB, Name→n
        assert_eq!(phi1.evidence_edges().count(), 1); // Name→DOB
    }

    #[test]
    fn side_graphs_differ_only_in_one_node() {
        let kb = nobel_mini_kb();
        for rule in figure4_rules(&kb) {
            let pos = rule.positive_graph();
            let neg = rule.negative_graph();
            // Removing the last node (p resp. n) leaves isomorphic graphs.
            let pos_core = pos.without_node(pos.len() - 1);
            let neg_core = neg.without_node(neg.len() - 1);
            assert!(
                pos_core.isomorphic(&neg_core),
                "rule {}: cores must be isomorphic",
                rule.name()
            );
        }
    }

    #[test]
    fn column_mismatch_rejected() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = figure4_rules(&kb);
        let phi1 = &rules[0];
        let mut wrong = phi1.positive().to_owned();
        wrong.col = schema.attr_expect("City");
        let err = DetectiveRule::new(
            "broken",
            phi1.evidence().to_vec(),
            *phi1.positive(),
            wrong,
            phi1.edges().to_vec(),
        )
        .unwrap_err();
        assert_eq!(err, RuleError::PositiveNegativeColumnMismatch);
    }

    #[test]
    fn repair_column_cannot_be_evidence() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let phi1 = &rules[0];
        let mut evidence = phi1.evidence().to_vec();
        evidence.push(*phi1.positive());
        let err = DetectiveRule::new(
            "broken",
            evidence,
            *phi1.positive(),
            *phi1.negative(),
            phi1.edges().to_vec(),
        )
        .unwrap_err();
        assert_eq!(err, RuleError::RepairColumnInEvidence);
    }

    #[test]
    fn p_to_n_edge_rejected() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let phi1 = &rules[0];
        let mut edges = phi1.edges().to_vec();
        edges.push(RuleEdge {
            from: RuleNodeRef::Positive,
            to: RuleNodeRef::Negative,
            rel: kb.pred_named("worksAt").unwrap(),
        });
        let err = DetectiveRule::new(
            "broken",
            phi1.evidence().to_vec(),
            *phi1.positive(),
            *phi1.negative(),
            edges,
        )
        .unwrap_err();
        assert_eq!(err, RuleError::PositiveNegativeEdge);
    }

    #[test]
    fn disconnected_side_rejected() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let laureate = kb.class_named("Nobel laureates in Chemistry").unwrap();
        let city = kb.class_named("city").unwrap();
        // No edges at all: both sides disconnected.
        let err = DetectiveRule::new(
            "broken",
            vec![node(
                schema.attr_expect("Name"),
                NodeType::Class(laureate),
                SimFn::Equal,
            )],
            node(
                schema.attr_expect("City"),
                NodeType::Class(city),
                SimFn::Equal,
            ),
            node(
                schema.attr_expect("City"),
                NodeType::Class(city),
                SimFn::Equal,
            ),
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::BadPositiveSide(_)));
    }

    #[test]
    fn no_evidence_rejected() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let city = kb.class_named("city").unwrap();
        let err = DetectiveRule::new(
            "broken",
            vec![],
            node(
                schema.attr_expect("City"),
                NodeType::Class(city),
                SimFn::Equal,
            ),
            node(
                schema.attr_expect("City"),
                NodeType::Class(city),
                SimFn::Equal,
            ),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, RuleError::NoEvidence);
    }

    #[test]
    fn render_is_informative() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = figure4_rules(&kb);
        let text = rules[1].render(&kb, &schema);
        assert!(text.contains("rule phi2"));
        assert!(text.contains("wasBornIn"));
        assert!(text.contains("col=City"));
    }
}
