//! Backend dispatch: one lightweight handle over either KB backend.
//!
//! [`KbRef`] is a `Copy` two-variant enum over the in-memory
//! [`KnowledgeBase`] and the memory-mapped [`MappedKb`]. Consumers
//! (`MatchContext`, the repairers, `dr-serve`) hold a `KbRef` and stay
//! backend-agnostic; `From` impls keep every existing `&kb` call site
//! compiling through `impl Into<KbRef<'_>>` parameters. Both backends
//! answer every query with the same signature, a slice query with `&'a
//! [T]` borrowed from the KB's own runs on the heap or in the mapping, so
//! each `KbRef` query is one call of the backend's method of that name.

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

/// Defines each listed query on [`KbRef`] as a call of the same-named
/// method of whichever backend it holds: both backends answer every query
/// with the same signature.
macro_rules! dispatch {
    ($($(#[$doc:meta])* fn $name:ident(self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {
        impl<'a> KbRef<'a> {
            $(
                $(#[$doc])*
                pub fn $name(self $(, $arg: $ty)*) -> $ret {
                    match self {
                        KbRef::Mem(kb) => kb.$name($($arg),*),
                        KbRef::Mapped(kb) => kb.$name($($arg),*),
                    }
                }
            )*
        }
    };
}

dispatch! {
    /// Process-unique generation (cache-registry key component).
    fn generation(self) -> u64;

    /// Deterministic content hash of the KB's triples.
    fn content_hash(self) -> u64;

    /// Number of instances.
    fn num_instances(self) -> usize;

    /// Number of classes.
    fn num_classes(self) -> usize;

    /// Number of predicates.
    fn num_preds(self) -> usize;

    /// Number of literals.
    fn num_literals(self) -> usize;

    /// Number of distinct triples.
    fn num_edges(self) -> usize;

    /// The class taxonomy (both backends hold a real, finalized one).
    fn taxonomy(self) -> &'a Taxonomy;

    /// The class with this exact name, if interned.
    fn class_named(self, name: &str) -> Option<ClassId>;

    /// The predicate with this exact name, if interned.
    fn pred_named(self, name: &str) -> Option<PredId>;

    /// The interned name of a class.
    fn class_name(self, c: ClassId) -> &'a str;

    /// The interned name of a predicate.
    fn pred_name(self, p: PredId) -> &'a str;

    /// The label of an instance.
    fn instance_label(self, i: InstanceId) -> &'a str;

    /// The value of a literal.
    fn literal_value(self, l: LiteralId) -> &'a str;

    /// The textual value behind either node kind.
    fn node_value(self, n: Node) -> &'a str;

    /// The literal with this exact value, if interned.
    fn literal_with_value(self, value: &str) -> Option<LiteralId>;

    /// All instances labeled exactly `label`, ascending by id.
    fn instances_labeled(self, label: &str) -> &'a [InstanceId];

    /// The classes this instance was directly declared with.
    fn instance_classes(self, i: InstanceId) -> &'a [ClassId];

    /// Whether `i` is an instance of `c`, honoring the taxonomy.
    fn has_type(self, i: InstanceId, c: ClassId) -> bool;

    /// All instances of `c` including subclass instances, ascending.
    fn instances_of(self, c: ClassId) -> &'a [InstanceId];

    /// Instances directly declared with class `c`, ascending.
    fn direct_instances_of(self, c: ClassId) -> &'a [InstanceId];

    /// All objects of `(s, p)` triples, in `Node` order.
    fn objects(self, s: InstanceId, p: PredId) -> &'a [Node];

    /// All subjects with an `(s, p, o)` triple, ascending by id.
    fn subjects(self, o: Node, p: PredId) -> &'a [InstanceId];

    /// Whether the triple `(s, p, o)` is in the KB.
    fn has_edge(self, s: InstanceId, p: PredId, o: Node) -> bool;

    /// The predicates on outgoing edges of `s`, ascending.
    fn preds_of(self, s: InstanceId) -> &'a [PredId];
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
