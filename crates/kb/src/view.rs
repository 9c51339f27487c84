//! Backend dispatch: one lightweight handle over either KB backend.
//!
//! [`KbRef`] is a `Copy` two-variant enum over the in-memory
//! [`KnowledgeBase`] and the memory-mapped [`MappedKb`]. Consumers
//! (`MatchContext`, the repairers, `dr-serve`) hold a `KbRef` and stay
//! backend-agnostic; `From` impls keep every existing `&kb` call site
//! compiling through `impl Into<KbRef<'_>>` parameters. Methods that
//! return borrowed slices from the in-memory KB return [`Cow`] here — the
//! mapped backend has to decode its compact image records into owned
//! vectors, the in-memory backend keeps lending slices at zero cost.

use std::borrow::Cow;

use crate::graph::KnowledgeBase;
use crate::ids::{ClassId, InstanceId, LiteralId, Node, PredId};
use crate::mapped::MappedKb;
use crate::taxonomy::Taxonomy;

/// A copyable reference to either KB backend. All query methods take
/// `self` by value and return data borrowed for the underlying KB's
/// lifetime `'a`, so a `KbRef` behaves exactly like the `&'a
/// KnowledgeBase` it replaced.
#[derive(Debug, Clone, Copy)]
pub enum KbRef<'a> {
    /// The in-memory, builder-finalized KB.
    Mem(&'a KnowledgeBase),
    /// A KB served from a memory-mapped `.drkb` image.
    Mapped(&'a MappedKb),
}

impl<'a> From<&'a KnowledgeBase> for KbRef<'a> {
    fn from(kb: &'a KnowledgeBase) -> Self {
        KbRef::Mem(kb)
    }
}

impl<'a> From<&'a MappedKb> for KbRef<'a> {
    fn from(kb: &'a MappedKb) -> Self {
        KbRef::Mapped(kb)
    }
}

impl<'a> KbRef<'a> {
    /// Which backend serves this KB: `"mem"` or `"mmap"` (the label used
    /// by the `kb_load_seconds` metric).
    pub fn backend(self) -> &'static str {
        match self {
            KbRef::Mem(_) => "mem",
            KbRef::Mapped(_) => "mmap",
        }
    }

    /// Process-unique generation (cache-registry key component).
    pub fn generation(self) -> u64 {
        match self {
            KbRef::Mem(kb) => kb.generation(),
            KbRef::Mapped(kb) => kb.generation(),
        }
    }

    /// Deterministic content hash of the KB's triples.
    pub fn content_hash(self) -> u64 {
        match self {
            KbRef::Mem(kb) => kb.content_hash(),
            KbRef::Mapped(kb) => kb.content_hash(),
        }
    }

    /// Number of instances.
    pub fn num_instances(self) -> usize {
        match self {
            KbRef::Mem(kb) => kb.num_instances(),
            KbRef::Mapped(kb) => kb.num_instances(),
        }
    }

    /// Number of classes.
    pub fn num_classes(self) -> usize {
        match self {
            KbRef::Mem(kb) => kb.num_classes(),
            KbRef::Mapped(kb) => kb.num_classes(),
        }
    }

    /// Number of predicates.
    pub fn num_preds(self) -> usize {
        match self {
            KbRef::Mem(kb) => kb.num_preds(),
            KbRef::Mapped(kb) => kb.num_preds(),
        }
    }

    /// Number of literals.
    pub fn num_literals(self) -> usize {
        match self {
            KbRef::Mem(kb) => kb.num_literals(),
            KbRef::Mapped(kb) => kb.num_literals(),
        }
    }

    /// Number of distinct triples.
    pub fn num_edges(self) -> usize {
        match self {
            KbRef::Mem(kb) => kb.num_edges(),
            KbRef::Mapped(kb) => kb.num_edges(),
        }
    }

    /// The class taxonomy (both backends hold a real, finalized one).
    pub fn taxonomy(self) -> &'a Taxonomy {
        match self {
            KbRef::Mem(kb) => kb.taxonomy(),
            KbRef::Mapped(kb) => kb.taxonomy(),
        }
    }

    /// The class with this exact name, if interned.
    pub fn class_named(self, name: &str) -> Option<ClassId> {
        match self {
            KbRef::Mem(kb) => kb.class_named(name),
            KbRef::Mapped(kb) => kb.class_named(name),
        }
    }

    /// The predicate with this exact name, if interned.
    pub fn pred_named(self, name: &str) -> Option<PredId> {
        match self {
            KbRef::Mem(kb) => kb.pred_named(name),
            KbRef::Mapped(kb) => kb.pred_named(name),
        }
    }

    /// The interned name of a class.
    pub fn class_name(self, c: ClassId) -> &'a str {
        match self {
            KbRef::Mem(kb) => kb.class_name(c),
            KbRef::Mapped(kb) => kb.class_name(c),
        }
    }

    /// The interned name of a predicate.
    pub fn pred_name(self, p: PredId) -> &'a str {
        match self {
            KbRef::Mem(kb) => kb.pred_name(p),
            KbRef::Mapped(kb) => kb.pred_name(p),
        }
    }

    /// The label of an instance.
    pub fn instance_label(self, i: InstanceId) -> &'a str {
        match self {
            KbRef::Mem(kb) => kb.instance_label(i),
            KbRef::Mapped(kb) => kb.instance_label(i),
        }
    }

    /// The value of a literal.
    pub fn literal_value(self, l: LiteralId) -> &'a str {
        match self {
            KbRef::Mem(kb) => kb.literal_value(l),
            KbRef::Mapped(kb) => kb.literal_value(l),
        }
    }

    /// The textual value behind either node kind.
    pub fn node_value(self, n: Node) -> &'a str {
        match self {
            KbRef::Mem(kb) => kb.node_value(n),
            KbRef::Mapped(kb) => kb.node_value(n),
        }
    }

    /// The literal with this exact value, if interned.
    pub fn literal_with_value(self, value: &str) -> Option<LiteralId> {
        match self {
            KbRef::Mem(kb) => kb.literal_with_value(value),
            KbRef::Mapped(kb) => kb.literal_with_value(value),
        }
    }

    /// All instances labeled exactly `label`, ascending by id.
    pub fn instances_labeled(self, label: &str) -> Cow<'a, [InstanceId]> {
        match self {
            KbRef::Mem(kb) => Cow::Borrowed(kb.instances_labeled(label)),
            KbRef::Mapped(kb) => Cow::Owned(kb.instances_labeled(label)),
        }
    }

    /// The classes this instance was directly declared with.
    pub fn instance_classes(self, i: InstanceId) -> Cow<'a, [ClassId]> {
        match self {
            KbRef::Mem(kb) => Cow::Borrowed(kb.instance_classes(i)),
            KbRef::Mapped(kb) => Cow::Owned(kb.instance_classes(i)),
        }
    }

    /// Whether `i` is an instance of `c`, honoring the taxonomy.
    pub fn has_type(self, i: InstanceId, c: ClassId) -> bool {
        match self {
            KbRef::Mem(kb) => kb.has_type(i, c),
            KbRef::Mapped(kb) => kb.has_type(i, c),
        }
    }

    /// All instances of `c` including subclass instances, ascending.
    pub fn instances_of(self, c: ClassId) -> Cow<'a, [InstanceId]> {
        match self {
            KbRef::Mem(kb) => Cow::Borrowed(kb.instances_of(c)),
            KbRef::Mapped(kb) => Cow::Owned(kb.instances_of(c)),
        }
    }

    /// Instances directly declared with class `c`, ascending.
    pub fn direct_instances_of(self, c: ClassId) -> Cow<'a, [InstanceId]> {
        match self {
            KbRef::Mem(kb) => Cow::Borrowed(kb.direct_instances_of(c)),
            KbRef::Mapped(kb) => Cow::Owned(kb.direct_instances_of(c)),
        }
    }

    /// All objects of `(s, p)` triples, in `Node` order.
    pub fn objects(self, s: InstanceId, p: PredId) -> Cow<'a, [Node]> {
        match self {
            KbRef::Mem(kb) => Cow::Borrowed(kb.objects(s, p)),
            KbRef::Mapped(kb) => Cow::Owned(kb.objects(s, p)),
        }
    }

    /// All subjects with an `(s, p, o)` triple, ascending by id.
    pub fn subjects(self, o: Node, p: PredId) -> Cow<'a, [InstanceId]> {
        match self {
            KbRef::Mem(kb) => Cow::Borrowed(kb.subjects(o, p)),
            KbRef::Mapped(kb) => Cow::Owned(kb.subjects(o, p)),
        }
    }

    /// Whether the triple `(s, p, o)` is in the KB.
    pub fn has_edge(self, s: InstanceId, p: PredId, o: Node) -> bool {
        match self {
            KbRef::Mem(kb) => kb.has_edge(s, p, o),
            KbRef::Mapped(kb) => kb.has_edge(s, p, o),
        }
    }

    /// The predicates on outgoing edges of `s`, ascending.
    pub fn preds_of(self, s: InstanceId) -> Cow<'a, [PredId]> {
        match self {
            KbRef::Mem(kb) => Cow::Borrowed(kb.preds_of(s)),
            KbRef::Mapped(kb) => Cow::Owned(kb.preds_of(s)),
        }
    }

    /// All class ids.
    pub fn classes(self) -> impl Iterator<Item = ClassId> {
        (0..self.num_classes()).map(ClassId::from_index)
    }

    /// All predicate ids.
    pub fn preds(self) -> impl Iterator<Item = PredId> {
        (0..self.num_preds()).map(PredId::from_index)
    }

    /// All instance ids.
    pub fn instances(self) -> impl Iterator<Item = InstanceId> {
        (0..self.num_instances()).map(InstanceId::from_index)
    }

    /// Every triple, in strictly ascending `(s, p, o)` order on both
    /// backends, so two KBs with the same triples yield equal sequences.
    pub fn triples(self) -> Vec<(InstanceId, PredId, Node)> {
        match self {
            KbRef::Mem(kb) => kb.triples().collect(),
            KbRef::Mapped(kb) => kb.triples().collect(),
        }
    }
}
