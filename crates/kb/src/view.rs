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
//!
//! [`KbQuery`] is the same surface as a trait, for code that wants to be
//! generic over a backend it owns (the differential test harness) rather
//! than dispatch through an enum it copies.

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

    /// Every triple. Order is backend-specific; compare as sets.
    pub fn triples(self) -> Vec<(InstanceId, PredId, Node)> {
        match self {
            KbRef::Mem(kb) => kb.triples().collect(),
            KbRef::Mapped(kb) => kb.triples().collect(),
        }
    }
}

/// The shared KB query surface as a trait: implemented by both backends
/// (and by [`KbRef`] itself), with every method provided via
/// [`KbQuery::kb_ref`]. Code generic over `K: KbQuery` — like the
/// differential-oracle harness — runs the exact same dispatch path on
/// either backend.
pub trait KbQuery {
    /// A [`KbRef`] view of this KB.
    fn kb_ref(&self) -> KbRef<'_>;

    /// See [`KbRef::generation`].
    fn generation(&self) -> u64 {
        self.kb_ref().generation()
    }

    /// See [`KbRef::content_hash`].
    fn content_hash(&self) -> u64 {
        self.kb_ref().content_hash()
    }

    /// See [`KbRef::num_instances`].
    fn num_instances(&self) -> usize {
        self.kb_ref().num_instances()
    }

    /// See [`KbRef::num_classes`].
    fn num_classes(&self) -> usize {
        self.kb_ref().num_classes()
    }

    /// See [`KbRef::num_preds`].
    fn num_preds(&self) -> usize {
        self.kb_ref().num_preds()
    }

    /// See [`KbRef::num_literals`].
    fn num_literals(&self) -> usize {
        self.kb_ref().num_literals()
    }

    /// See [`KbRef::num_edges`].
    fn num_edges(&self) -> usize {
        self.kb_ref().num_edges()
    }

    /// See [`KbRef::taxonomy`].
    fn taxonomy(&self) -> &Taxonomy;

    /// See [`KbRef::class_named`].
    fn class_named(&self, name: &str) -> Option<ClassId> {
        self.kb_ref().class_named(name)
    }

    /// See [`KbRef::pred_named`].
    fn pred_named(&self, name: &str) -> Option<PredId> {
        self.kb_ref().pred_named(name)
    }

    /// See [`KbRef::class_name`].
    fn class_name(&self, c: ClassId) -> &str {
        self.kb_ref().class_name(c)
    }

    /// See [`KbRef::pred_name`].
    fn pred_name(&self, p: PredId) -> &str {
        self.kb_ref().pred_name(p)
    }

    /// See [`KbRef::instance_label`].
    fn instance_label(&self, i: InstanceId) -> &str {
        self.kb_ref().instance_label(i)
    }

    /// See [`KbRef::literal_value`].
    fn literal_value(&self, l: LiteralId) -> &str {
        self.kb_ref().literal_value(l)
    }

    /// See [`KbRef::node_value`].
    fn node_value(&self, n: Node) -> &str {
        self.kb_ref().node_value(n)
    }

    /// See [`KbRef::literal_with_value`].
    fn literal_with_value(&self, value: &str) -> Option<LiteralId> {
        self.kb_ref().literal_with_value(value)
    }

    /// See [`KbRef::instances_labeled`].
    fn instances_labeled(&self, label: &str) -> Cow<'_, [InstanceId]> {
        self.kb_ref().instances_labeled(label)
    }

    /// See [`KbRef::instance_classes`].
    fn instance_classes(&self, i: InstanceId) -> Cow<'_, [ClassId]> {
        self.kb_ref().instance_classes(i)
    }

    /// See [`KbRef::has_type`].
    fn has_type(&self, i: InstanceId, c: ClassId) -> bool {
        self.kb_ref().has_type(i, c)
    }

    /// See [`KbRef::instances_of`].
    fn instances_of(&self, c: ClassId) -> Cow<'_, [InstanceId]> {
        self.kb_ref().instances_of(c)
    }

    /// See [`KbRef::direct_instances_of`].
    fn direct_instances_of(&self, c: ClassId) -> Cow<'_, [InstanceId]> {
        self.kb_ref().direct_instances_of(c)
    }

    /// See [`KbRef::objects`].
    fn objects(&self, s: InstanceId, p: PredId) -> Cow<'_, [Node]> {
        self.kb_ref().objects(s, p)
    }

    /// See [`KbRef::subjects`].
    fn subjects(&self, o: Node, p: PredId) -> Cow<'_, [InstanceId]> {
        self.kb_ref().subjects(o, p)
    }

    /// See [`KbRef::has_edge`].
    fn has_edge(&self, s: InstanceId, p: PredId, o: Node) -> bool {
        self.kb_ref().has_edge(s, p, o)
    }

    /// See [`KbRef::preds_of`].
    fn preds_of(&self, s: InstanceId) -> Cow<'_, [PredId]> {
        self.kb_ref().preds_of(s)
    }

    /// See [`KbRef::triples`].
    fn all_triples(&self) -> Vec<(InstanceId, PredId, Node)> {
        self.kb_ref().triples()
    }
}

impl KbQuery for KnowledgeBase {
    fn kb_ref(&self) -> KbRef<'_> {
        KbRef::Mem(self)
    }

    fn taxonomy(&self) -> &Taxonomy {
        KnowledgeBase::taxonomy(self)
    }
}

impl KbQuery for MappedKb {
    fn kb_ref(&self) -> KbRef<'_> {
        KbRef::Mapped(self)
    }

    fn taxonomy(&self) -> &Taxonomy {
        MappedKb::taxonomy(self)
    }
}

impl KbQuery for KbRef<'_> {
    fn kb_ref(&self) -> KbRef<'_> {
        *self
    }

    fn taxonomy(&self) -> &Taxonomy {
        KbRef::taxonomy(*self)
    }
}
