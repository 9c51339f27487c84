//! Schema-level matching graphs (§II-B).
//!
//! A [`SchemaGraph`] explains how a relation's columns are semantically
//! linked through a KB: each node binds a column to a KB type and a matching
//! operation (`{col, type, sim}`), and each directed edge carries a KB
//! relationship or property. It is a *local* interpretation — any connected
//! induced subgraph of a schema-level matching graph is again one.

use dr_kb::{ClassId, KnowledgeBase, PredId, Region};
use dr_relation::{AttrId, Schema};
use dr_simmatch::SimFn;
use std::fmt;

/// The KB type a schema node binds its column to: a class, or `literal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeType {
    /// Values of the column are instances of this class (or a subclass).
    Class(ClassId),
    /// Values of the column are literals.
    Literal,
}

impl NodeType {
    /// Human-readable rendering against a KB.
    pub fn display<'a>(&self, kb: &'a KnowledgeBase) -> &'a str {
        match *self {
            NodeType::Class(c) => kb.class_name(c),
            NodeType::Literal => "literal",
        }
    }

    /// The KB region holding this type's extent: the class, or the
    /// literal pool.
    pub fn region(self) -> Region {
        match self {
            NodeType::Class(c) => Region::Class(c),
            NodeType::Literal => Region::Literals,
        }
    }
}

/// One node of a schema-level matching graph: `{col, type, sim}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemaNode {
    /// The relation column this node describes.
    pub col: AttrId,
    /// The KB type its values belong to.
    pub ty: NodeType,
    /// How a cell value is matched against a KB value.
    pub sim: SimFn,
}

impl SchemaNode {
    /// Convenience constructor.
    pub fn new(col: AttrId, ty: NodeType, sim: SimFn) -> Self {
        Self { col, ty, sim }
    }
}

// `SchemaNode` keys the fast-repair element cache; keep it word-sized.
const _: () = assert!(std::mem::size_of::<SchemaNode>() <= 24);

/// A directed, labeled edge between two nodes (by index) of a
/// [`SchemaGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemaEdge {
    /// Index of the source node.
    pub from: usize,
    /// Index of the target node.
    pub to: usize,
    /// The KB relationship or property linking the two columns.
    pub rel: PredId,
}

/// Validation failures for a schema-level matching graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaGraphError {
    /// Two nodes reference the same column.
    DuplicateColumn(AttrId),
    /// An edge endpoint is out of range.
    BadEdgeEndpoint(usize),
    /// An edge starts at a literal-typed node (literals have no out-edges in
    /// RDF).
    EdgeFromLiteral(usize),
    /// The graph is not (weakly) connected.
    Disconnected,
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for SchemaGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaGraphError::DuplicateColumn(a) => {
                write!(f, "two nodes reference the same column {a:?}")
            }
            SchemaGraphError::BadEdgeEndpoint(i) => write!(f, "edge endpoint {i} out of range"),
            SchemaGraphError::EdgeFromLiteral(i) => {
                write!(f, "edge starts at literal-typed node {i}")
            }
            SchemaGraphError::Disconnected => write!(f, "graph is not connected"),
            SchemaGraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for SchemaGraphError {}

/// A schema-level matching graph `GS(VS, ES)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaGraph {
    nodes: Vec<SchemaNode>,
    edges: Vec<SchemaEdge>,
}

impl SchemaGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self, node: SchemaNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds a directed edge `from → to` labeled `rel`.
    pub fn add_edge(&mut self, from: usize, to: usize, rel: PredId) {
        self.edges.push(SchemaEdge { from, to, rel });
    }

    /// The nodes, by index.
    pub fn nodes(&self) -> &[SchemaNode] {
        &self.nodes
    }

    /// The edges.
    pub fn edges(&self) -> &[SchemaEdge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Validates structural invariants: non-empty, per-column uniqueness,
    /// edge sanity, weak connectivity.
    pub fn validate(&self) -> Result<(), SchemaGraphError> {
        if self.nodes.is_empty() {
            return Err(SchemaGraphError::Empty);
        }
        let mut seen_cols = dr_kb::FxHashSet::default();
        for n in &self.nodes {
            if !seen_cols.insert(n.col) {
                return Err(SchemaGraphError::DuplicateColumn(n.col));
            }
        }
        for e in &self.edges {
            if e.from >= self.nodes.len() {
                return Err(SchemaGraphError::BadEdgeEndpoint(e.from));
            }
            if e.to >= self.nodes.len() {
                return Err(SchemaGraphError::BadEdgeEndpoint(e.to));
            }
            if self.nodes[e.from].ty == NodeType::Literal {
                return Err(SchemaGraphError::EdgeFromLiteral(e.from));
            }
        }
        if !self.is_connected() {
            return Err(SchemaGraphError::Disconnected);
        }
        Ok(())
    }

    /// Whether the graph is weakly connected (single node counts as
    /// connected; empty does not).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for e in &self.edges {
                for (a, b) in [(e.from, e.to), (e.to, e.from)] {
                    if a == u && !seen[b] {
                        seen[b] = true;
                        stack.push(b);
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// The induced subgraph after removing node `idx` (and its edges).
    /// Remaining node indexes are compacted, preserving order.
    pub fn without_node(&self, idx: usize) -> SchemaGraph {
        let mut g = SchemaGraph::new();
        let mut remap = vec![usize::MAX; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if i != idx {
                remap[i] = g.add_node(*n);
            }
        }
        for e in &self.edges {
            if e.from != idx && e.to != idx {
                g.add_edge(remap[e.from], remap[e.to], e.rel);
            }
        }
        g
    }

    /// A canonical representation: sorted `(col, ty, sim)` node list and
    /// sorted `(col_from, rel, col_to)` edge multiset.
    ///
    /// Because every node references a distinct column, two schema graphs are
    /// isomorphic **iff** their canonical keys are equal — the column names
    /// pin the only possible node correspondence.
    pub fn canonical_key(&self) -> CanonicalKey {
        let mut nodes: Vec<SchemaNode> = self.nodes.clone();
        nodes.sort_by_key(|n| (n.col, n.ty, n.sim));
        let mut edges: Vec<(AttrId, PredId, AttrId)> = self
            .edges
            .iter()
            .map(|e| (self.nodes[e.from].col, e.rel, self.nodes[e.to].col))
            .collect();
        edges.sort_unstable();
        CanonicalKey { nodes, edges }
    }

    /// Whether `self` and `other` are isomorphic (see [`canonical_key`]).
    ///
    /// [`canonical_key`]: SchemaGraph::canonical_key
    pub fn isomorphic(&self, other: &SchemaGraph) -> bool {
        self.canonical_key() == other.canonical_key()
    }

    /// Renders the graph for debugging/docs against a KB and schema.
    pub fn render(&self, kb: &KnowledgeBase, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "v{i}: col={} type={} sim={}",
                schema.attr_name(n.col),
                n.ty.display(kb),
                n.sim
            );
        }
        for e in &self.edges {
            let _ = writeln!(out, "v{} -[{}]-> v{}", e.from, kb.pred_name(e.rel), e.to);
        }
        out
    }
}

/// Canonical form of a [`SchemaGraph`]; equality ⇔ isomorphism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalKey {
    nodes: Vec<SchemaNode>,
    edges: Vec<(AttrId, PredId, AttrId)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_kb::fixtures::{figure1_kb, names};
    use dr_relation::Schema;

    /// Figure 3(a): Name —bornOnDate→ DOB, Name —worksAt→ Institution,
    /// Name —isCitizenOf→ Country.
    fn fig3a() -> (SchemaGraph, std::sync::Arc<Schema>, dr_kb::KnowledgeBase) {
        let kb = figure1_kb();
        let schema = Schema::new(
            "Nobel",
            &["Name", "DOB", "Country", "Prize", "Institution", "City"],
        );
        let mut g = SchemaGraph::new();
        let laureate = kb.class_named(names::LAUREATE).unwrap();
        let organization = kb.class_named(names::ORGANIZATION).unwrap();
        let country = kb.class_named(names::COUNTRY).unwrap();
        let v1 = g.add_node(SchemaNode::new(
            schema.attr_expect("Name"),
            NodeType::Class(laureate),
            SimFn::Equal,
        ));
        let v2 = g.add_node(SchemaNode::new(
            schema.attr_expect("DOB"),
            NodeType::Literal,
            SimFn::Equal,
        ));
        let v3 = g.add_node(SchemaNode::new(
            schema.attr_expect("Country"),
            NodeType::Class(country),
            SimFn::Equal,
        ));
        let v5 = g.add_node(SchemaNode::new(
            schema.attr_expect("Institution"),
            NodeType::Class(organization),
            SimFn::EditDistance(2),
        ));
        g.add_edge(v1, v2, kb.pred_named(names::BORN_ON_DATE).unwrap());
        g.add_edge(v1, v3, kb.pred_named(names::CITIZEN_OF).unwrap());
        g.add_edge(v1, v5, kb.pred_named(names::WORKS_AT).unwrap());
        (g, schema, kb)
    }

    #[test]
    fn valid_graph_passes() {
        let (g, _, _) = fig3a();
        assert!(g.validate().is_ok());
        assert!(g.is_connected());
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn duplicate_column_rejected() {
        let (mut g, schema, _) = fig3a();
        g.add_node(SchemaNode::new(
            schema.attr_expect("Name"),
            NodeType::Literal,
            SimFn::Equal,
        ));
        assert!(matches!(
            g.validate(),
            Err(SchemaGraphError::DuplicateColumn(_))
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let (mut g, schema, _) = fig3a();
        g.add_node(SchemaNode::new(
            schema.attr_expect("City"),
            NodeType::Literal,
            SimFn::Equal,
        ));
        assert_eq!(g.validate(), Err(SchemaGraphError::Disconnected));
    }

    #[test]
    fn edge_from_literal_rejected() {
        let (mut g, _, kb) = fig3a();
        // v2 is the literal DOB node; index 1.
        g.add_edge(1, 0, kb.pred_named(names::WORKS_AT).unwrap());
        assert_eq!(g.validate(), Err(SchemaGraphError::EdgeFromLiteral(1)));
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(SchemaGraph::new().validate(), Err(SchemaGraphError::Empty));
    }

    #[test]
    fn without_node_removes_edges_and_compacts() {
        let (g, _, _) = fig3a();
        let sub = g.without_node(0); // remove Name: all edges vanish
        assert_eq!(sub.len(), 3);
        assert!(sub.edges().is_empty());
        assert!(!sub.is_connected());

        let sub2 = g.without_node(1); // remove DOB
        assert_eq!(sub2.len(), 3);
        assert_eq!(sub2.edges().len(), 2);
        assert!(sub2.is_connected());
    }

    #[test]
    fn isomorphism_is_node_order_independent() {
        let (g, schema, kb) = fig3a();
        // Rebuild with nodes in a different insertion order.
        let mut h = SchemaGraph::new();
        let laureate = kb.class_named(names::LAUREATE).unwrap();
        let organization = kb.class_named(names::ORGANIZATION).unwrap();
        let country = kb.class_named(names::COUNTRY).unwrap();
        let inst = h.add_node(SchemaNode::new(
            schema.attr_expect("Institution"),
            NodeType::Class(organization),
            SimFn::EditDistance(2),
        ));
        let dob = h.add_node(SchemaNode::new(
            schema.attr_expect("DOB"),
            NodeType::Literal,
            SimFn::Equal,
        ));
        let ctry = h.add_node(SchemaNode::new(
            schema.attr_expect("Country"),
            NodeType::Class(country),
            SimFn::Equal,
        ));
        let name = h.add_node(SchemaNode::new(
            schema.attr_expect("Name"),
            NodeType::Class(laureate),
            SimFn::Equal,
        ));
        h.add_edge(name, inst, kb.pred_named(names::WORKS_AT).unwrap());
        h.add_edge(name, ctry, kb.pred_named(names::CITIZEN_OF).unwrap());
        h.add_edge(name, dob, kb.pred_named(names::BORN_ON_DATE).unwrap());
        assert!(g.isomorphic(&h));
    }

    #[test]
    fn isomorphism_detects_differences() {
        let (g, _, kb) = fig3a();
        let mut h = g.clone();
        assert!(g.isomorphic(&h));
        h.add_edge(0, 3, kb.pred_named(names::BORN_IN).unwrap());
        assert!(!g.isomorphic(&h));
    }

    #[test]
    fn render_mentions_columns_and_rels() {
        let (g, schema, kb) = fig3a();
        let text = g.render(&kb, &schema);
        assert!(text.contains("col=Name"));
        assert!(text.contains("worksAt"));
        assert!(text.contains("sim=ED,2"));
    }
}
