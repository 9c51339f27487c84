//! The knowledge-base graph: a finalized, index-backed RDF triple store.
//!
//! A KB is a set of triples `(s, p, o)` where `s` is an instance, `p` is a
//! relationship or property, and `o` is an instance or literal (§II-A of the
//! paper). Construction goes through [`KbBuilder`]; [`KbBuilder::finalize`]
//! produces an immutable [`KnowledgeBase`] with all the indexes detective
//! rules need on the hot path:
//!
//! * type index with taxonomy closure (`instances_of`),
//! * SPO sorted runs — per subject its ascending predicates, per
//!   `(subject, predicate)` its ascending objects (`preds_of`, `objects`,
//!   `edges_from`, `triples`),
//! * OSP sorted runs — per object node its ascending predicates, per
//!   `(object, predicate)` its ascending subjects (`subjects`),
//! * O(log n) membership (`has_edge`),
//! * exact-label lookup (`instances_labeled`).
//!
//! The runs are flat CSR arrays, the same shape as the SPO/OSP sections of
//! a `.drkb` image (DESIGN.md §8), cut into reference-counted blocks of
//! consecutive keys. The dictionary (interned names), the typing (class
//! lists, taxonomy, class extents) and the adjacency each sit behind an
//! `Arc`, so a [`KnowledgeBase::clone`] shares all three and
//! [`KnowledgeBase::apply_delta`] copies only what a delta writes: the
//! dictionary if it names something new, the typing if it edits types or
//! the taxonomy, and the adjacency blocks holding a changed key.

use crate::delta::{DeltaNode, DeltaOp, KbDelta, KbFootprint, Region};
use crate::hash::{FxHashMap, FxHashSet};
use crate::ids::{ClassId, InstanceId, LiteralId, Node, PredId};
use crate::symbol::{Symbol, SymbolTable};
use crate::taxonomy::Taxonomy;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide counter behind [`KnowledgeBase::generation`]. Starts at 1 so
/// generation 0 can act as a "no KB" sentinel in cache keys.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Draws the next process-unique KB generation. Shared by
/// [`KbBuilder::finalize`] and `MappedKb::open` so every live KB — in-memory
/// or mapped — gets a distinct cache-registry key.
pub(crate) fn alloc_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Errors raised while finalizing a KB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbError {
    /// The `subClassOf` hierarchy contains a cycle through this class.
    TaxonomyCycle(String),
}

impl fmt::Display for KbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbError::TaxonomyCycle(c) => write!(f, "subClassOf cycle through class `{c}`"),
        }
    }
}

impl std::error::Error for KbError {}

/// The dictionary: every interned name and the id it was assigned.
/// Ids are dense and assigned in interning order.
#[derive(Default, Clone)]
struct Names {
    symbols: SymbolTable,
    class_names: Vec<Symbol>,
    class_by_name: FxHashMap<Symbol, ClassId>,
    pred_names: Vec<Symbol>,
    pred_by_name: FxHashMap<Symbol, PredId>,
    instance_labels: Vec<Symbol>,
    instance_by_label: FxHashMap<Symbol, Vec<InstanceId>>,
    literal_values: Vec<Symbol>,
    literal_by_value: FxHashMap<Symbol, LiteralId>,
}

impl Names {
    fn class_id(&self, name: &str) -> Option<ClassId> {
        let sym = self.symbols.get(name)?;
        self.class_by_name.get(&sym).copied()
    }

    fn pred_id(&self, name: &str) -> Option<PredId> {
        let sym = self.symbols.get(name)?;
        self.pred_by_name.get(&sym).copied()
    }

    /// The first instance labeled `label`, the one [`KbBuilder::instance`]
    /// resolves to.
    fn instance_id(&self, label: &str) -> Option<InstanceId> {
        self.instances_labeled(label).first().copied()
    }

    fn instances_labeled(&self, label: &str) -> &[InstanceId] {
        self.symbols
            .get(label)
            .and_then(|s| self.instance_by_label.get(&s))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn literal_id(&self, value: &str) -> Option<LiteralId> {
        let sym = self.symbols.get(value)?;
        self.literal_by_value.get(&sym).copied()
    }

    /// Assigns the next class id to `name`, which must not name a class yet.
    fn push_class(&mut self, name: &str) -> ClassId {
        let sym = self.symbols.intern(name);
        let id = ClassId::from_index(self.class_names.len());
        self.class_names.push(sym);
        self.class_by_name.insert(sym, id);
        id
    }

    /// Assigns the next predicate id to `name`, which must not name one yet.
    fn push_pred(&mut self, name: &str) -> PredId {
        let sym = self.symbols.intern(name);
        let id = PredId::from_index(self.pred_names.len());
        self.pred_names.push(sym);
        self.pred_by_name.insert(sym, id);
        id
    }

    /// Creates a fresh instance, even if `label` already names another one.
    fn push_instance(&mut self, label: &str) -> InstanceId {
        let sym = self.symbols.intern(label);
        let id = InstanceId::from_index(self.instance_labels.len());
        self.instance_labels.push(sym);
        // The new id is the maximum, so pushing keeps the per-label list
        // sorted.
        self.instance_by_label.entry(sym).or_default().push(id);
        id
    }

    /// Assigns the next literal id to `value`, which must not be one yet.
    fn push_literal(&mut self, value: &str) -> LiteralId {
        let sym = self.symbols.intern(value);
        let id = LiteralId::from_index(self.literal_values.len());
        self.literal_values.push(sym);
        self.literal_by_value.insert(sym, id);
        id
    }

    fn class_name(&self, c: ClassId) -> Option<&str> {
        self.class_names
            .get(c.index())
            .map(|&s| self.symbols.resolve(s))
    }
}

/// Typing: each instance's direct classes, the taxonomy, and the class
/// extents derived from both.
#[derive(Clone)]
struct Types {
    /// Direct classes per instance, in the order they were added. Instances
    /// created after the last type edit may have no entry (no classes).
    instance_classes: Vec<Vec<ClassId>>,
    taxonomy: Taxonomy,
    /// Instances typed directly with each class, sorted.
    direct: Vec<Vec<InstanceId>>,
    /// Instances of each class or any subclass, sorted.
    closed: Vec<Vec<InstanceId>>,
}

impl Types {
    fn new(instance_classes: Vec<Vec<ClassId>>, taxonomy: Taxonomy, num_classes: usize) -> Types {
        let mut direct: Vec<Vec<InstanceId>> = vec![Vec::new(); num_classes];
        // Ascending instance order keeps every list sorted.
        for (idx, classes) in instance_classes.iter().enumerate() {
            for &c in classes {
                direct[c.index()].push(InstanceId::from_index(idx));
            }
        }
        let mut types = Types {
            instance_classes,
            taxonomy,
            direct,
            closed: Vec::new(),
        };
        types.recompute_closed(num_classes);
        types
    }

    fn classes_of(&self, i: InstanceId) -> &[ClassId] {
        self.instance_classes
            .get(i.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn recompute_closed(&mut self, num_classes: usize) {
        let n = num_classes.max(self.taxonomy.num_classes());
        self.closed = (0..n)
            .map(|c| {
                let mut acc: Vec<InstanceId> = Vec::new();
                for &d in self.taxonomy.descendants(ClassId::from_index(c)) {
                    if let Some(direct) = self.direct.get(d.index()) {
                        acc.extend_from_slice(direct);
                    }
                }
                acc.sort_unstable();
                acc.dedup();
                acc
            })
            .collect();
    }

    /// Types `i` with `c`, which it does not have yet.
    fn add(&mut self, i: InstanceId, c: ClassId) {
        if self.instance_classes.len() <= i.index() {
            self.instance_classes.resize_with(i.index() + 1, Vec::new);
        }
        self.instance_classes[i.index()].push(c);
        if self.direct.len() <= c.index() {
            self.direct.resize_with(c.index() + 1, Vec::new);
        }
        let direct = &mut self.direct[c.index()];
        if let Err(pos) = direct.binary_search(&i) {
            direct.insert(pos, i);
        }
    }

    /// Removes the direct type `c`, which `i` has, from `i`. Other classes
    /// of `i` keep their relative order.
    fn remove(&mut self, i: InstanceId, c: ClassId) {
        self.instance_classes[i.index()].retain(|&d| d != c);
        let direct = &mut self.direct[c.index()];
        if let Ok(pos) = direct.binary_search(&i) {
            direct.remove(pos);
        }
    }
}

/// Converts a run length or offset to the `u32` the runs store.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("more than u32::MAX triples in one block")
}

/// One edit of the runs, `(key, pred, value, insert)`: the insert of an
/// absent triple or the removal of a present one.
type Edit<V> = (usize, PredId, V, bool);

/// Consecutive keys per adjacency block. A delta rewrites only the blocks
/// holding a key it changes and shares the rest with the generation it
/// was cloned from, so small blocks keep a small delta's copy small; each
/// block costs a few hundred bytes of bookkeeping.
const BLOCK_KEYS: usize = 32;

/// Two-level sorted runs in CSR form over the `BLOCK_KEYS` keys of one
/// block, numbered from the block's first key: local key `k` owns
/// `preds[key_start[k]..key_start[k + 1]]`, ascending, and the group at
/// position `g` of `preds` owns `vals[group_start[g]..group_start[g + 1]]`,
/// ascending.
struct Runs<V> {
    key_start: Vec<u32>,
    preds: Vec<PredId>,
    group_start: Vec<u32>,
    vals: Vec<V>,
}

impl<V: Copy + Ord> Runs<V> {
    /// An empty block to be filled in ascending order and sealed by
    /// `finish`; `capacity` sizes the arrays for that many triples.
    fn with_capacity(capacity: usize) -> Self {
        Runs {
            key_start: Vec::with_capacity(BLOCK_KEYS + 1),
            preds: Vec::with_capacity(capacity),
            group_start: Vec::with_capacity(capacity + 1),
            vals: Vec::with_capacity(capacity),
        }
    }

    /// Starts every local key below `keys` at the current end of `preds`.
    fn pad_to(&mut self, keys: usize) {
        while self.key_start.len() < keys {
            self.key_start.push(offset(self.preds.len()));
        }
    }

    fn open_group(&mut self, p: PredId) {
        self.preds.push(p);
        self.group_start.push(offset(self.vals.len()));
    }

    /// Appends group `g` of `from` unchanged.
    fn copy_group(&mut self, from: &Self, g: usize) {
        self.open_group(from.preds[g]);
        self.vals.extend_from_slice(from.group(g));
    }

    /// Appends local keys `keys` of `from` unchanged: four slice copies,
    /// with the offsets shifted to their new positions.
    fn copy_keys(&mut self, from: &Self, keys: Range<usize>) {
        if keys.is_empty() {
            return;
        }
        self.pad_to(keys.start);
        let (p0, p1) = (from.key_start[keys.start], from.key_start[keys.end]);
        let (v0, v1) = (from.group_start[p0 as usize], from.group_start[p1 as usize]);
        let pred_shift = offset(self.preds.len()).wrapping_sub(p0);
        let val_shift = offset(self.vals.len()).wrapping_sub(v0);
        self.key_start.extend(
            from.key_start[keys]
                .iter()
                .map(|&x| x.wrapping_add(pred_shift)),
        );
        let groups = p0 as usize..p1 as usize;
        self.group_start.extend(
            from.group_start[groups.clone()]
                .iter()
                .map(|&x| x.wrapping_add(val_shift)),
        );
        self.preds.extend_from_slice(&from.preds[groups]);
        self.vals
            .extend_from_slice(&from.vals[v0 as usize..v1 as usize]);
    }

    fn finish(mut self) -> Self {
        self.pad_to(BLOCK_KEYS + 1);
        self.group_start.push(offset(self.vals.len()));
        self
    }

    /// Positions in `preds` owned by local key `key`.
    fn key_range(&self, key: usize) -> Range<usize> {
        self.key_start[key] as usize..self.key_start[key + 1] as usize
    }

    /// The values of the group at position `g` of `preds`.
    fn group(&self, g: usize) -> &[V] {
        &self.vals[self.group_start[g] as usize..self.group_start[g + 1] as usize]
    }

    fn values(&self, key: usize, p: PredId) -> &[V] {
        let range = self.key_range(key);
        match self.preds[range.clone()].binary_search(&p) {
            Ok(k) => self.group(range.start + k),
            Err(_) => &[],
        }
    }

    /// `(pred, value)` pairs of local key `key`, ascending.
    fn pairs_of(&self, key: usize) -> impl Iterator<Item = (PredId, V)> + '_ {
        self.key_range(key)
            .flat_map(move |g| self.group(g).iter().map(move |&v| (self.preds[g], v)))
    }

    /// Every `(key, pred, value)` of the block whose first key is `base`,
    /// ascending.
    fn iter(&self, base: usize) -> impl Iterator<Item = (usize, PredId, V)> + '_ {
        (0..BLOCK_KEYS).flat_map(move |k| self.pairs_of(k).map(move |(p, v)| (base + k, p, v)))
    }

    /// This block, whose first key is `base`, with `changes` applied: edits
    /// of keys in this block, ascending. Keys and groups no change names
    /// are copied whole; a changed group is spliced between its change
    /// points.
    fn merged(&self, base: usize, changes: &[Edit<V>]) -> Self {
        let mut out = Runs::with_capacity(self.vals.len() + changes.len());
        let mut next_key = 0;
        for key_changes in changes.chunk_by(|a, b| a.0 == b.0) {
            let key = key_changes[0].0 - base;
            out.copy_keys(self, next_key..key);
            out.pad_to(key + 1);
            let groups = self.key_range(key);
            let mut g = groups.start;
            for pred_changes in key_changes.chunk_by(|a, b| a.1 == b.1) {
                let p = pred_changes[0].1;
                while g < groups.end && self.preds[g] < p {
                    out.copy_group(self, g);
                    g += 1;
                }
                let old: &[V] = if g < groups.end && self.preds[g] == p {
                    g += 1;
                    self.group(g - 1)
                } else {
                    &[]
                };
                let start = out.vals.len();
                let mut i = 0;
                for &(_, _, v, insert) in pred_changes {
                    let pos = i + old[i..].partition_point(|&x| x < v);
                    debug_assert_eq!(old.get(pos) == Some(&v), !insert, "no-op edit");
                    out.vals.extend_from_slice(&old[i..pos]);
                    if insert {
                        out.vals.push(v);
                        i = pos;
                    } else {
                        i = pos + 1;
                    }
                }
                out.vals.extend_from_slice(&old[i..]);
                if out.vals.len() > start {
                    out.preds.push(p);
                    out.group_start.push(offset(start));
                }
            }
            for g in g..groups.end {
                out.copy_group(self, g);
            }
            next_key = key + 1;
        }
        out.copy_keys(self, next_key..BLOCK_KEYS);
        out.finish()
    }
}

/// Sorted runs over all keys, split into reference-counted blocks of
/// `BLOCK_KEYS` consecutive keys. Keys past the last block have no
/// triples.
struct Blocked<V> {
    blocks: Vec<Arc<Runs<V>>>,
    /// Number of triples.
    len: usize,
}

impl<V: Copy + Ord> Blocked<V> {
    fn empty() -> Self {
        Blocked {
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// The block holding `key` and `key`'s number within it.
    fn locate(&self, key: usize) -> Option<(&Runs<V>, usize)> {
        let block = self.blocks.get(key / BLOCK_KEYS)?;
        Some((block, key % BLOCK_KEYS))
    }

    fn preds_of(&self, key: usize) -> &[PredId] {
        self.locate(key)
            .map_or(&[], |(runs, k)| &runs.preds[runs.key_range(k)])
    }

    fn values(&self, key: usize, p: PredId) -> &[V] {
        self.locate(key).map_or(&[], |(runs, k)| runs.values(k, p))
    }

    fn pairs_of(&self, key: usize) -> impl Iterator<Item = (PredId, V)> + '_ {
        self.locate(key)
            .into_iter()
            .flat_map(|(runs, k)| runs.pairs_of(k))
    }

    /// Every `(key, pred, value)`, ascending.
    fn iter(&self) -> impl Iterator<Item = (usize, PredId, V)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(b, runs)| runs.iter(b * BLOCK_KEYS))
    }

    /// These runs with `changes` applied, given ascending. Only the blocks
    /// they name are rebuilt; the others are shared with `self`.
    fn merged(&self, changes: &[Edit<V>]) -> Self {
        let mut blocks = self.blocks.clone();
        for block_changes in changes.chunk_by(|a, b| a.0 / BLOCK_KEYS == b.0 / BLOCK_KEYS) {
            let b = block_changes[0].0 / BLOCK_KEYS;
            while blocks.len() <= b {
                blocks.push(Arc::new(Runs::with_capacity(0).finish()));
            }
            blocks[b] = Arc::new(blocks[b].merged(b * BLOCK_KEYS, block_changes));
        }
        let inserts = changes.iter().filter(|c| c.3).count();
        Blocked {
            blocks,
            len: self.len + inserts - (changes.len() - inserts),
        }
    }
}

/// A triple as the SPO runs order it.
type Triple = (InstanceId, PredId, Node);

/// Adjacency in sorted runs: SPO keyed by subject, OSP keyed by object
/// (instance objects and literal objects in runs of their own, so that
/// interning a new instance never renumbers a literal key).
struct Adjacency {
    spo: Blocked<Node>,
    osp_instances: Blocked<InstanceId>,
    osp_literals: Blocked<InstanceId>,
}

impl Adjacency {
    /// Indexes `edges`, in any order and with duplicates.
    fn build(mut edges: Vec<Triple>) -> Adjacency {
        edges.sort_unstable();
        edges.dedup();
        let inserts: Vec<(Triple, bool)> = edges.into_iter().map(|t| (t, true)).collect();
        let empty = Adjacency {
            spo: Blocked::empty(),
            osp_instances: Blocked::empty(),
            osp_literals: Blocked::empty(),
        };
        empty.merged(&inserts)
    }

    /// This adjacency with `changes` applied: ascending `(triple, insert)`
    /// edits, each an insert of an absent triple or a removal of a present
    /// one.
    fn merged(&self, changes: &[(Triple, bool)]) -> Adjacency {
        let spo: Vec<Edit<Node>> = changes
            .iter()
            .map(|&((s, p, o), insert)| (s.index(), p, o, insert))
            .collect();
        let mut osp_instances: Vec<Edit<InstanceId>> = Vec::new();
        let mut osp_literals: Vec<Edit<InstanceId>> = Vec::new();
        for &((s, p, o), insert) in changes {
            match o {
                Node::Instance(i) => osp_instances.push((i.index(), p, s, insert)),
                Node::Literal(l) => osp_literals.push((l.index(), p, s, insert)),
            }
        }
        osp_instances.sort_unstable();
        osp_literals.sort_unstable();
        Adjacency {
            spo: self.spo.merged(&spo),
            osp_instances: self.osp_instances.merged(&osp_instances),
            osp_literals: self.osp_literals.merged(&osp_literals),
        }
    }

    fn objects(&self, s: InstanceId, p: PredId) -> &[Node] {
        self.spo.values(s.index(), p)
    }

    fn subjects(&self, o: Node, p: PredId) -> &[InstanceId] {
        match o {
            Node::Instance(i) => self.osp_instances.values(i.index(), p),
            Node::Literal(l) => self.osp_literals.values(l.index(), p),
        }
    }

    fn has_edge(&self, (s, p, o): Triple) -> bool {
        self.objects(s, p).binary_search(&o).is_ok()
    }
}

/// Incremental constructor for a [`KnowledgeBase`].
///
/// All `add_*`/lookup methods are idempotent on names: asking for the class
/// `"city"` twice yields the same [`ClassId`].
#[derive(Default)]
pub struct KbBuilder {
    names: Names,
    instance_classes: Vec<Vec<ClassId>>,
    taxonomy: Taxonomy,
    edges: Vec<Triple>,
}

impl KbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a class by name.
    pub fn class(&mut self, name: &str) -> ClassId {
        if let Some(c) = self.names.class_id(name) {
            return c;
        }
        let id = self.names.push_class(name);
        self.taxonomy.ensure(id);
        id
    }

    /// Interns a predicate (relationship or property) by name.
    pub fn pred(&mut self, name: &str) -> PredId {
        self.names
            .pred_id(name)
            .unwrap_or_else(|| self.names.push_pred(name))
    }

    /// Returns the instance labeled `label`, creating it if absent.
    ///
    /// Labels are treated as entity keys by this convenience constructor; use
    /// [`KbBuilder::new_instance`] to create homonymous entities.
    pub fn instance(&mut self, label: &str) -> InstanceId {
        match self.names.instance_id(label) {
            Some(i) => i,
            None => self.new_instance(label),
        }
    }

    /// Creates a fresh instance with `label`, even if the label already names
    /// another entity.
    pub fn new_instance(&mut self, label: &str) -> InstanceId {
        self.instance_classes.push(Vec::new());
        self.names.push_instance(label)
    }

    /// Interns a literal by value.
    pub fn literal(&mut self, value: &str) -> LiteralId {
        self.names
            .literal_id(value)
            .unwrap_or_else(|| self.names.push_literal(value))
    }

    /// Types instance `i` with class `c` (an `rdf:type` edge).
    pub fn set_type(&mut self, i: InstanceId, c: ClassId) {
        let classes = &mut self.instance_classes[i.index()];
        if !classes.contains(&c) {
            classes.push(c);
        }
    }

    /// Declares `sub ⊑ sup` in the taxonomy.
    pub fn subclass(&mut self, sub: ClassId, sup: ClassId) {
        self.taxonomy.add_subclass(sub, sup);
    }

    /// Adds a triple `(s, p, o)`.
    pub fn edge(&mut self, s: InstanceId, p: PredId, o: impl Into<Node>) {
        self.edges.push((s, p, o.into()));
    }

    /// Removes every copy of the triple `(s, p, o)` added so far. The
    /// rebuild-oracle counterpart of [`crate::delta::DeltaOp::RetractTriple`].
    pub fn retract_edge(&mut self, s: InstanceId, p: PredId, o: impl Into<Node>) {
        let o = o.into();
        self.edges.retain(|&(es, ep, eo)| (es, ep, eo) != (s, p, o));
    }

    /// Removes the `rdf:type` edge typing `i` with `c`, if present. Other
    /// classes of `i` keep their relative order.
    pub fn remove_type(&mut self, i: InstanceId, c: ClassId) {
        self.instance_classes[i.index()].retain(|&d| d != c);
    }

    /// Retracts the direct `sub ⊑ sup` taxonomy edge, if present.
    pub fn remove_subclass(&mut self, sub: ClassId, sup: ClassId) {
        self.taxonomy.remove_subclass(sub, sup);
    }

    /// Number of instances created so far.
    pub fn num_instances(&self) -> usize {
        self.names.instance_labels.len()
    }

    /// Seals the builder into an immutable, fully indexed KB.
    ///
    /// # Errors
    /// Fails if the taxonomy is cyclic.
    pub fn finalize(mut self) -> Result<KnowledgeBase, KbError> {
        let names = self.names;
        self.taxonomy.finalize().map_err(|c| {
            KbError::TaxonomyCycle(
                names
                    .class_name(c)
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("{c:?}")),
            )
        })?;
        let adjacency = Adjacency::build(self.edges);
        let num_classes = names.class_names.len().max(self.taxonomy.num_classes());
        let types = Types::new(self.instance_classes, self.taxonomy, num_classes);
        Ok(KnowledgeBase {
            names: Arc::new(names),
            types: Arc::new(types),
            adjacency: Arc::new(adjacency),
            generation: alloc_generation(),
            content_hash: OnceLock::new(),
        })
    }
}

/// An immutable RDF knowledge base with matching-oriented indexes.
pub struct KnowledgeBase {
    names: Arc<Names>,
    types: Arc<Types>,
    adjacency: Arc<Adjacency>,
    generation: u64,
    content_hash: OnceLock<u64>,
}

impl KnowledgeBase {
    /// A process-unique id assigned at [`KbBuilder::finalize`]. Two
    /// `KnowledgeBase` values never share a generation, so derived state
    /// (e.g. cached KB lookups keyed by generation) can never be served
    /// against a different — or rebuilt — KB.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A deterministic hash of the KB's full content **and** id assignment
    /// (see [`crate::content_hash`]). Unlike [`KnowledgeBase::generation`],
    /// two KBs built by replaying the same construction sequence share a
    /// content hash across processes, which makes it the right key for
    /// on-disk cache snapshots. Computed lazily on first use, then cached.
    pub fn content_hash(&self) -> u64 {
        *self
            .content_hash
            .get_or_init(|| crate::content_hash::content_hash_of(self))
    }

    // ----- name lookups ------------------------------------------------

    /// Resolves a class by name.
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        self.names.class_id(name)
    }

    /// Resolves a predicate by name.
    pub fn pred_named(&self, name: &str) -> Option<PredId> {
        self.names.pred_id(name)
    }

    /// The name of class `c`.
    pub fn class_name(&self, c: ClassId) -> &str {
        self.names
            .symbols
            .resolve(self.names.class_names[c.index()])
    }

    /// The name of predicate `p`.
    pub fn pred_name(&self, p: PredId) -> &str {
        self.names.symbols.resolve(self.names.pred_names[p.index()])
    }

    /// The human-readable label of instance `i`.
    pub fn instance_label(&self, i: InstanceId) -> &str {
        self.names
            .symbols
            .resolve(self.names.instance_labels[i.index()])
    }

    /// The value of literal `l`.
    pub fn literal_value(&self, l: LiteralId) -> &str {
        self.names
            .symbols
            .resolve(self.names.literal_values[l.index()])
    }

    /// The textual value of any node (instance label or literal value).
    pub fn node_value(&self, n: Node) -> &str {
        match n {
            Node::Instance(i) => self.instance_label(i),
            Node::Literal(l) => self.literal_value(l),
        }
    }

    /// Instances whose label is exactly `label` (sorted by id).
    pub fn instances_labeled(&self, label: &str) -> &[InstanceId] {
        self.names.instances_labeled(label)
    }

    /// The literal with exactly this value, if present.
    pub fn literal_with_value(&self, value: &str) -> Option<LiteralId> {
        self.names.literal_id(value)
    }

    // ----- typing -------------------------------------------------------

    /// Direct classes of instance `i` (no taxonomy closure).
    pub fn instance_classes(&self, i: InstanceId) -> &[ClassId] {
        self.types.classes_of(i)
    }

    /// Whether `i` is typed with `c` or any subclass of `c`.
    pub fn has_type(&self, i: InstanceId, c: ClassId) -> bool {
        self.types
            .classes_of(i)
            .iter()
            .any(|&d| self.types.taxonomy.subsumes(c, d))
    }

    /// All instances of class `c`, **including** instances of subclasses.
    /// Sorted by id.
    pub fn instances_of(&self, c: ClassId) -> &[InstanceId] {
        self.types
            .closed
            .get(c.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Instances typed directly with `c` (no closure). Sorted by id.
    pub fn direct_instances_of(&self, c: ClassId) -> &[InstanceId] {
        self.types
            .direct
            .get(c.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    // ----- adjacency ------------------------------------------------------

    /// Objects `o` with a triple `(s, p, o)`. Sorted.
    pub fn objects(&self, s: InstanceId, p: PredId) -> &[Node] {
        self.adjacency.objects(s, p)
    }

    /// Subjects `s` with a triple `(s, p, o)`. Sorted.
    pub fn subjects(&self, o: Node, p: PredId) -> &[InstanceId] {
        self.adjacency.subjects(o, p)
    }

    /// Whether the triple `(s, p, o)` is in the KB.
    pub fn has_edge(&self, s: InstanceId, p: PredId, o: Node) -> bool {
        self.adjacency.has_edge((s, p, o))
    }

    /// The predicates with at least one out-edge from `s`. Sorted.
    pub fn preds_of(&self, s: InstanceId) -> &[PredId] {
        self.adjacency.spo.preds_of(s.index())
    }

    /// Iterates over all out-edges of `s` as `(pred, object)` pairs,
    /// ascending.
    pub fn edges_from(&self, s: InstanceId) -> impl Iterator<Item = (PredId, Node)> + '_ {
        self.adjacency.spo.pairs_of(s.index())
    }

    // ----- sizes ----------------------------------------------------------

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.names.instance_labels.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.names.class_names.len()
    }

    /// Number of predicates.
    pub fn num_preds(&self) -> usize {
        self.names.pred_names.len()
    }

    /// Number of literals.
    pub fn num_literals(&self) -> usize {
        self.names.literal_values.len()
    }

    /// Number of distinct triples.
    pub fn num_edges(&self) -> usize {
        self.adjacency.spo.len
    }

    /// The class taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.types.taxonomy
    }

    /// Iterates over all class ids.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> {
        (0..self.num_classes()).map(ClassId::from_index)
    }

    /// Iterates over all predicate ids.
    pub fn preds(&self) -> impl Iterator<Item = PredId> {
        (0..self.num_preds()).map(PredId::from_index)
    }

    /// Iterates over all instance ids.
    pub fn instances(&self) -> impl Iterator<Item = InstanceId> {
        (0..self.num_instances()).map(InstanceId::from_index)
    }

    /// Iterates over all triples `(s, p, o)` in strictly ascending order:
    /// by subject id, then predicate id, then object (instances before
    /// literals, each by id).
    pub fn triples(&self) -> impl Iterator<Item = (InstanceId, PredId, Node)> + '_ {
        self.adjacency
            .spo
            .iter()
            .map(|(s, p, o)| (InstanceId::from_index(s), p, o))
    }

    /// Iterates over all triples as `(o, p, s)` in strictly ascending
    /// order: by object as [`Node`] orders it, then predicate, then
    /// subject. Walks the OSP runs, instance objects first.
    pub(crate) fn osp_triples(&self) -> impl Iterator<Item = (Node, PredId, InstanceId)> + '_ {
        let (instances, literals) = (&self.adjacency.osp_instances, &self.adjacency.osp_literals);
        let instance = |(o, p, s)| (Node::Instance(InstanceId::from_index(o)), p, s);
        let literal = |(o, p, s)| (Node::Literal(LiteralId::from_index(o)), p, s);
        instances
            .iter()
            .map(instance)
            .chain(literals.iter().map(literal))
    }

    // ----- incremental edits (DESIGN.md §10) ------------------------------

    /// Applies `delta` in place: every op lands in order, indexes are
    /// maintained, the generation bumps, and the cached content hash is
    /// reset. Returns the **write footprint** — the classes, adjacency
    /// pairs, and literal state the delta touched — which cache layers
    /// intersect against recorded read footprints to invalidate only
    /// stale entries.
    ///
    /// Names are interned in op order, lookup first: the shared dictionary
    /// is copied only if the delta names something new, and the typing only
    /// if it edits types or the taxonomy. Edge ops are resolved, in op
    /// order, to one net change per triple and then merged into fresh runs
    /// in one pass, so the cost is O(edges + d log d) for d edge ops. The
    /// footprint is that of applying the ops one at a time: every op that
    /// changed the edge set marks its pairs, even if a later op undoes it.
    ///
    /// The result is byte-identical to rebuilding the KB from scratch
    /// with the delta's ops appended to the original construction
    /// sequence (same ids, same content hash) — the invariant pinned by
    /// the `kb_delta_differential` suite.
    ///
    /// # Errors
    /// If a `sub+` op would make the taxonomy cyclic, nothing is mutated
    /// and [`KbError::TaxonomyCycle`] is returned.
    pub fn apply_delta(&mut self, delta: &KbDelta) -> Result<KbFootprint, KbError> {
        // --- plan: assign ids for not-yet-existing classes without
        // mutating, so taxonomy edits can be cycle-checked up front and a
        // rejected delta leaves the KB untouched.
        let mut planned: FxHashMap<Box<str>, ClassId> = FxHashMap::default();
        let mut next_class = self.num_classes();
        fn plan_class(
            kb: &KnowledgeBase,
            planned: &mut FxHashMap<Box<str>, ClassId>,
            next_class: &mut usize,
            name: &str,
        ) -> ClassId {
            if let Some(c) = kb.class_named(name) {
                return c;
            }
            if let Some(&c) = planned.get(name) {
                return c;
            }
            let c = ClassId::from_index(*next_class);
            *next_class += 1;
            planned.insert(name.into(), c);
            c
        }
        let mut tax_ops: Vec<(bool, ClassId, ClassId)> = Vec::new();
        for op in delta.ops() {
            match op {
                DeltaOp::AddType { class, .. } | DeltaOp::RemoveType { class, .. } => {
                    plan_class(self, &mut planned, &mut next_class, class);
                }
                DeltaOp::AddSubclass { sub, sup } => {
                    let a = plan_class(self, &mut planned, &mut next_class, sub);
                    let b = plan_class(self, &mut planned, &mut next_class, sup);
                    tax_ops.push((true, a, b));
                }
                DeltaOp::RemoveSubclass { sub, sup } => {
                    let a = plan_class(self, &mut planned, &mut next_class, sub);
                    let b = plan_class(self, &mut planned, &mut next_class, sup);
                    tax_ops.push((false, a, b));
                }
                DeltaOp::InsertTriple { .. } | DeltaOp::RetractTriple { .. } => {}
            }
        }
        let taxonomy_changed = !tax_ops.is_empty();

        // --- validate: rebuild the taxonomy (existing edges replayed in
        // construction order + delta edits in op order) whenever the
        // hierarchy changes or new classes appear, so `descendants` covers
        // every class. Finalize before touching `self`: a cycle aborts the
        // whole delta.
        let needs_tax_rebuild = taxonomy_changed || next_class > self.num_classes();
        let new_taxonomy = if needs_tax_rebuild {
            let taxonomy = self.taxonomy();
            let mut t = Taxonomy::new();
            let total = next_class.max(taxonomy.num_classes());
            if total > 0 {
                t.ensure(ClassId::from_index(total - 1));
            }
            for c in 0..taxonomy.num_classes() {
                let c = ClassId::from_index(c);
                for &p in taxonomy.parents(c) {
                    t.add_subclass(c, p);
                }
            }
            for &(add, sub, sup) in &tax_ops {
                if add {
                    t.add_subclass(sub, sup);
                } else {
                    t.remove_subclass(sub, sup);
                }
            }
            t.finalize().map_err(|c| {
                let name = self
                    .names
                    .class_name(c)
                    .map(str::to_owned)
                    .or_else(|| {
                        planned
                            .iter()
                            .find(|&(_, &id)| id == c)
                            .map(|(n, _)| n.to_string())
                    })
                    .unwrap_or_else(|| format!("{c:?}"));
                KbError::TaxonomyCycle(name)
            })?;
            Some(t)
        } else {
            None
        };

        // --- mutate: names and types in op order (entities are interned
        // even by retract ops, for id parity with the rebuild oracle); edge
        // ops are collected and merged after the loop. The footprint
        // records only regions that actually changed.
        let mut writes: Vec<Region> = Vec::new();
        let mut typed: FxHashSet<ClassId> = FxHashSet::default();
        let mut edge_ops: Vec<(Triple, bool)> = Vec::new();
        for op in delta.ops() {
            match op {
                DeltaOp::InsertTriple {
                    subject,
                    pred,
                    object,
                }
                | DeltaOp::RetractTriple {
                    subject,
                    pred,
                    object,
                } => {
                    let s = self.intern_instance(subject);
                    let p = self.intern_pred(pred);
                    let o = self.intern_node(object, &mut writes);
                    let insert = matches!(op, DeltaOp::InsertTriple { .. });
                    edge_ops.push(((s, p, o), insert));
                }
                DeltaOp::AddType { instance, class } => {
                    let i = self.intern_instance(instance);
                    let c = self.intern_class(class);
                    if !self.types.classes_of(i).contains(&c) {
                        Arc::make_mut(&mut self.types).add(i, c);
                        typed.insert(c);
                    }
                }
                DeltaOp::RemoveType { instance, class } => {
                    let i = self.intern_instance(instance);
                    let c = self.intern_class(class);
                    if self.types.classes_of(i).contains(&c) {
                        Arc::make_mut(&mut self.types).remove(i, c);
                        typed.insert(c);
                    }
                }
                DeltaOp::AddSubclass { sub, sup } | DeltaOp::RemoveSubclass { sub, sup } => {
                    // Edge set already folded into `new_taxonomy`; intern
                    // here so class-id assignment matches the plan (and
                    // the rebuild oracle).
                    self.intern_class(sub);
                    self.intern_class(sup);
                }
            }
        }
        debug_assert_eq!(self.num_classes(), next_class, "plan/mutation id drift");

        if new_taxonomy.is_some() || !typed.is_empty() {
            let num_classes = self.num_classes();
            let types = Arc::make_mut(&mut self.types);
            if let Some(t) = new_taxonomy {
                types.taxonomy = t;
            }
            types.recompute_closed(num_classes);
        }
        self.apply_edge_ops(edge_ops, &mut writes);

        // Ancestor expansion against the *installed* taxonomy: a type edit
        // on `c` changes the closed extent of `c` and every class above it.
        let mut stack: Vec<ClassId> = typed.iter().copied().collect();
        while let Some(c) = stack.pop() {
            for &p in self.taxonomy().parents(c) {
                if typed.insert(p) {
                    stack.push(p);
                }
            }
        }
        writes.extend(typed.into_iter().map(Region::Class));
        if taxonomy_changed {
            writes.push(Region::AllClasses);
        }

        self.generation = alloc_generation();
        self.content_hash = OnceLock::new();
        Ok(KbFootprint::from_buf(&mut writes))
    }

    /// Lands edge ops, given in op order, as one merge into fresh runs.
    fn apply_edge_ops(&mut self, mut ops: Vec<(Triple, bool)>, writes: &mut Vec<Region>) {
        // A stable sort groups the ops on each triple and keeps their order.
        ops.sort_by_key(|&(t, _)| t);
        let mut changes: Vec<(Triple, bool)> = Vec::new();
        for run in ops.chunk_by(|a, b| a.0 == b.0) {
            let t @ (s, p, o) = run[0].0;
            let before = self.adjacency.has_edge(t);
            let mut present = before;
            let mut changed = false;
            for &(_, insert) in run {
                if insert != present {
                    present = insert;
                    changed = true;
                }
            }
            if changed {
                writes.extend([Region::Out(s, p), Region::In(o, p)]);
            }
            if present != before {
                changes.push((t, present));
            }
        }
        if !changes.is_empty() {
            self.adjacency = Arc::new(self.adjacency.merged(&changes));
        }
    }

    fn intern_class(&mut self, name: &str) -> ClassId {
        match self.names.class_id(name) {
            Some(c) => c,
            None => Arc::make_mut(&mut self.names).push_class(name),
        }
    }

    fn intern_pred(&mut self, name: &str) -> PredId {
        match self.names.pred_id(name) {
            Some(p) => p,
            None => Arc::make_mut(&mut self.names).push_pred(name),
        }
    }

    fn intern_instance(&mut self, label: &str) -> InstanceId {
        match self.names.instance_id(label) {
            Some(i) => i,
            None => Arc::make_mut(&mut self.names).push_instance(label),
        }
    }

    fn intern_node(&mut self, node: &DeltaNode, writes: &mut Vec<Region>) -> Node {
        match node {
            DeltaNode::Instance(label) => Node::Instance(self.intern_instance(label)),
            DeltaNode::Literal(value) => {
                if let Some(l) = self.names.literal_id(value) {
                    return Node::Literal(l);
                }
                // A reader that resolved this value before the delta saw a
                // miss; flag literal state as changed.
                writes.push(Region::Literals);
                Node::Literal(Arc::make_mut(&mut self.names).push_literal(value))
            }
        }
    }
}

impl Clone for KnowledgeBase {
    /// Shares the content of `self` — dictionary, typing and adjacency are
    /// reference-counted, so nothing is copied — under a **fresh
    /// generation**: generations are process-unique identities, never
    /// shared, so cache state keyed to the source KB must not leak onto the
    /// clone. [`KnowledgeBase::apply_delta`] on either side copies only the
    /// parts it writes; the other side never sees the edit. The cached
    /// content hash carries over (content is identical).
    fn clone(&self) -> Self {
        KnowledgeBase {
            names: Arc::clone(&self.names),
            types: Arc::clone(&self.types),
            adjacency: Arc::clone(&self.adjacency),
            generation: alloc_generation(),
            content_hash: self.content_hash.clone(),
        }
    }
}

impl fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KnowledgeBase")
            .field("instances", &self.num_instances())
            .field("classes", &self.num_classes())
            .field("preds", &self.num_preds())
            .field("literals", &self.num_literals())
            .field("edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_kb;

    #[test]
    fn figure1_basic_lookups() {
        let kb = figure1_kb();
        assert_eq!(kb.num_classes(), 6);
        assert_eq!(kb.num_preds(), 7);
        assert_eq!(kb.num_instances(), 8);
        assert_eq!(kb.num_literals(), 1);
        assert_eq!(kb.num_edges(), 10);

        let city = kb.class_named("city").unwrap();
        let haifa = kb.instances_labeled("Haifa")[0];
        assert!(kb.has_type(haifa, city));
        assert_eq!(kb.instances_of(city).len(), 2); // Karcag + Haifa
    }

    #[test]
    fn adjacency_queries() {
        let kb = figure1_kb();
        let hershko = kb.instances_labeled("Avram Hershko")[0];
        let technion = kb.instances_labeled("Israel Institute of Technology")[0];
        let haifa = kb.instances_labeled("Haifa")[0];
        let works_at = kb.pred_named("worksAt").unwrap();
        let located_in = kb.pred_named("locatedIn").unwrap();

        assert_eq!(kb.objects(hershko, works_at), &[Node::Instance(technion)]);
        assert!(kb.has_edge(technion, located_in, Node::Instance(haifa)));
        assert_eq!(kb.subjects(Node::Instance(technion), works_at), &[hershko]);
    }

    #[test]
    fn two_hop_lives_at_semantics() {
        // worksAt ∘ locatedIn reaches Haifa, while wasBornIn reaches Karcag.
        let kb = figure1_kb();
        let hershko = kb.instances_labeled("Avram Hershko")[0];
        let works_at = kb.pred_named("worksAt").unwrap();
        let located_in = kb.pred_named("locatedIn").unwrap();
        let born_in = kb.pred_named("wasBornIn").unwrap();

        let inst = kb.objects(hershko, works_at)[0].as_instance().unwrap();
        let lives = kb.objects(inst, located_in)[0];
        assert_eq!(kb.node_value(lives), "Haifa");
        let born = kb.objects(hershko, born_in)[0];
        assert_eq!(kb.node_value(born), "Karcag");
        assert_ne!(lives, born);
    }

    #[test]
    fn property_edges_reach_literals() {
        let kb = figure1_kb();
        let hershko = kb.instances_labeled("Avram Hershko")[0];
        let born_on = kb.pred_named("bornOnDate").unwrap();
        let objs = kb.objects(hershko, born_on);
        assert_eq!(objs.len(), 1);
        assert!(objs[0].is_literal());
        assert_eq!(kb.node_value(objs[0]), "1937-12-31");
        let lit = kb.literal_with_value("1937-12-31").unwrap();
        assert_eq!(kb.subjects(Node::Literal(lit), born_on), &[hershko]);
    }

    #[test]
    fn duplicate_edges_count_once() {
        let mut b = KbBuilder::new();
        let p = b.pred("r");
        let a = b.instance("a");
        let bb = b.instance("b");
        b.edge(a, p, bb);
        b.edge(a, p, bb);
        let kb = b.finalize().unwrap();
        assert_eq!(kb.num_edges(), 1);
        assert_eq!(kb.objects(a, p).len(), 1);
    }

    #[test]
    fn taxonomy_closure_in_instances_of() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let chemist = b.class("chemist");
        b.subclass(chemist, person);
        let i = b.instance("Marie Curie");
        b.set_type(i, chemist);
        let kb = b.finalize().unwrap();
        assert_eq!(kb.instances_of(person), &[i]);
        assert!(kb.direct_instances_of(person).is_empty());
        assert!(kb.has_type(i, person));
    }

    #[test]
    fn homonymous_instances() {
        let mut b = KbBuilder::new();
        let c = b.class("city");
        let paris_fr = b.new_instance("Paris");
        let paris_tx = b.new_instance("Paris");
        b.set_type(paris_fr, c);
        b.set_type(paris_tx, c);
        let kb = b.finalize().unwrap();
        assert_eq!(kb.instances_labeled("Paris").len(), 2);
    }

    #[test]
    fn cyclic_taxonomy_reported_by_name() {
        let mut b = KbBuilder::new();
        let a = b.class("alpha");
        let bb = b.class("beta");
        b.subclass(a, bb);
        b.subclass(bb, a);
        match b.finalize() {
            Err(KbError::TaxonomyCycle(name)) => {
                assert!(name == "alpha" || name == "beta");
            }
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn per_instance_neighbourhood() {
        let kb = figure1_kb();
        let hershko = kb.instances_labeled("Avram Hershko")[0];
        // worksAt, isCitizenOf, wasBornIn, wonPrize, bornOnDate, bornAt.
        assert_eq!(kb.preds_of(hershko).len(), 6);
        let edges: Vec<_> = kb.edges_from(hershko).collect();
        assert_eq!(edges.len(), 7); // wonPrize has two objects
        for (p, o) in edges {
            assert!(kb.has_edge(hershko, p, o));
        }
        // A leaf node (literal target) has no out-edges.
        let karcag = kb.instances_labeled("Karcag")[0];
        assert_eq!(kb.preds_of(karcag).len(), 1); // locatedIn Hungary
    }

    #[test]
    fn triples_iterator_covers_all_edges() {
        let kb = figure1_kb();
        let mut n = 0;
        for (s, p, o) in kb.triples() {
            assert!(kb.has_edge(s, p, o));
            n += 1;
        }
        assert_eq!(n, kb.num_edges());
    }

    #[test]
    fn generations_are_unique_even_for_identical_content() {
        let a = figure1_kb();
        let b = figure1_kb();
        assert_ne!(a.generation(), b.generation());
        assert_ne!(a.generation(), 0, "generation 0 is the `no KB` sentinel");
    }

    #[test]
    fn clone_draws_a_fresh_generation_but_keeps_content() {
        let a = figure1_kb();
        let hash = a.content_hash();
        let b = a.clone();
        assert_ne!(a.generation(), b.generation());
        assert_eq!(b.content_hash(), hash);
        assert_eq!(b.num_edges(), a.num_edges());
    }

    #[test]
    fn delta_insert_and_retract_maintain_indexes() {
        let mut kb = figure1_kb();
        let gen0 = kb.generation();
        let works_at = kb.pred_named("worksAt").unwrap();
        let haifa = kb.instances_labeled("Haifa")[0];

        let mut d = KbDelta::new();
        d.insert("Ada Yonath", "worksAt", DeltaNode::Instance("Haifa".into()));
        let fp = kb.apply_delta(&d).unwrap();
        assert!(kb.generation() > gen0);

        let ada = kb.instances_labeled("Ada Yonath")[0];
        assert!(kb.has_edge(ada, works_at, Node::Instance(haifa)));
        assert_eq!(kb.subjects(Node::Instance(haifa), works_at), &[ada]);
        assert_eq!(kb.preds_of(ada), &[works_at]);
        assert!(fp.contains(Region::Out(ada, works_at)));
        assert!(fp.contains(Region::In(Node::Instance(haifa), works_at)));
        assert!(fp
            .regions()
            .iter()
            .all(|r| matches!(r, Region::Out(..) | Region::In(..))));

        let edges = kb.num_edges();
        let mut r = KbDelta::new();
        r.retract("Ada Yonath", "worksAt", DeltaNode::Instance("Haifa".into()));
        kb.apply_delta(&r).unwrap();
        assert!(!kb.has_edge(ada, works_at, Node::Instance(haifa)));
        assert_eq!(kb.num_edges(), edges - 1);
        assert!(kb.preds_of(ada).is_empty());
        assert!(kb.subjects(Node::Instance(haifa), works_at).is_empty());
    }

    #[test]
    fn delta_type_ops_update_closed_extents_with_ancestors_in_footprint() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let chemist = b.class("chemist");
        b.subclass(chemist, person);
        let i = b.instance("Marie Curie");
        b.set_type(i, chemist);
        let mut kb = b.finalize().unwrap();

        let mut d = KbDelta::new();
        d.add_type("Paul Berg", "chemist");
        let fp = kb.apply_delta(&d).unwrap();
        let berg = kb.instances_labeled("Paul Berg")[0];
        assert_eq!(kb.instances_of(person), &[i, berg]);
        assert!(fp.contains(Region::Class(chemist)) && fp.contains(Region::Class(person)));
        assert!(!fp.contains(Region::AllClasses));

        let mut r = KbDelta::new();
        r.remove_type("Marie Curie", "chemist");
        let fp = kb.apply_delta(&r).unwrap();
        assert_eq!(kb.instances_of(person), &[berg]);
        assert!(kb.instance_classes(i).is_empty());
        assert!(fp.contains(Region::Class(person)));
    }

    #[test]
    fn delta_taxonomy_edit_sets_all_classes_and_cycle_aborts_cleanly() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let chemist = b.class("chemist");
        b.subclass(chemist, person);
        let i = b.instance("Marie Curie");
        b.set_type(i, chemist);
        let mut kb = b.finalize().unwrap();

        // A cyclic edit is rejected before anything mutates.
        let gen = kb.generation();
        let mut bad = KbDelta::new();
        bad.add_subclass("person", "chemist");
        match kb.apply_delta(&bad) {
            Err(KbError::TaxonomyCycle(_)) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
        assert_eq!(kb.generation(), gen, "rejected delta must not mutate");
        assert_eq!(kb.instances_of(person), &[i]);

        // Removing the subclass edge empties person's closed extent.
        let mut d = KbDelta::new();
        d.remove_subclass("chemist", "person");
        let fp = kb.apply_delta(&d).unwrap();
        assert!(fp.contains(Region::AllClasses));
        assert!(kb.instances_of(person).is_empty());
        assert_eq!(kb.instances_of(chemist), &[i]);
    }

    #[test]
    fn delta_matches_rebuild_content_hash() {
        // In-place delta vs replaying construction + ops through the
        // builder: same ids, same content hash.
        let build_base = |b: &mut KbBuilder| {
            let city = b.class("city");
            let country = b.class("country");
            let located_in = b.pred("locatedIn");
            let haifa = b.instance("Haifa");
            let israel = b.instance("Israel");
            b.set_type(haifa, city);
            b.set_type(israel, country);
            b.edge(haifa, located_in, israel);
        };

        let mut live = {
            let mut b = KbBuilder::new();
            build_base(&mut b);
            b.finalize().unwrap()
        };
        let mut d = KbDelta::new();
        d.insert("Haifa", "population", DeltaNode::Literal("285000".into()))
            .retract("Haifa", "locatedIn", DeltaNode::Instance("Israel".into()))
            .add_type("Haifa", "port")
            .add_subclass("port", "place")
            .remove_type("Israel", "country");
        let fp = live.apply_delta(&d).unwrap();
        assert!(fp.contains(Region::Literals), "new literal interned");

        let rebuilt = {
            let mut b = KbBuilder::new();
            build_base(&mut b);
            // Mirror the ops 1:1 through the builder (the rebuild oracle).
            let s = b.instance("Haifa");
            let p = b.pred("population");
            let l = b.literal("285000");
            b.edge(s, p, l);
            let s = b.instance("Haifa");
            let p = b.pred("locatedIn");
            let o = b.instance("Israel");
            b.retract_edge(s, p, o);
            let i = b.instance("Haifa");
            let c = b.class("port");
            b.set_type(i, c);
            let sub = b.class("port");
            let sup = b.class("place");
            b.subclass(sub, sup);
            let i = b.instance("Israel");
            let c = b.class("country");
            b.remove_type(i, c);
            b.finalize().unwrap()
        };

        assert_eq!(live.content_hash(), rebuilt.content_hash());
        assert_eq!(live.num_edges(), rebuilt.num_edges());
        assert_eq!(live.num_classes(), rebuilt.num_classes());
        assert_eq!(live.num_instances(), rebuilt.num_instances());
        assert_eq!(live.num_literals(), rebuilt.num_literals());
    }

    #[test]
    fn batched_edge_ops_honour_op_order() {
        let inst = |l: &str| DeltaNode::Instance(l.into());
        let mut d = KbDelta::new();
        // A new edge inserted, retracted and inserted again: present.
        d.insert("Ada Yonath", "worksAt", inst("Haifa"))
            .retract("Ada Yonath", "worksAt", inst("Haifa"))
            .insert("Ada Yonath", "worksAt", inst("Haifa"))
            // An existing edge retracted and restored: present.
            .retract("Israel Institute of Technology", "locatedIn", inst("Haifa"))
            .insert("Israel Institute of Technology", "locatedIn", inst("Haifa"))
            // A new edge inserted then retracted: absent.
            .insert("Haifa", "locatedIn", inst("Karcag"))
            .retract("Haifa", "locatedIn", inst("Karcag"))
            // An existing edge retracted twice: absent, second op a no-op.
            .retract("Karcag", "locatedIn", inst("Hungary"))
            .retract("Karcag", "locatedIn", inst("Hungary"))
            // Re-inserting an existing edge: a no-op.
            .insert(
                "Avram Hershko",
                "worksAt",
                inst("Israel Institute of Technology"),
            );

        let mut kb = figure1_kb();
        let edges = kb.num_edges();
        let fp = kb.apply_delta(&d).unwrap();

        let id = |l: &str| kb.instances_labeled(l)[0];
        let works_at = kb.pred_named("worksAt").unwrap();
        let located_in = kb.pred_named("locatedIn").unwrap();
        let (ada, haifa, karcag) = (id("Ada Yonath"), id("Haifa"), id("Karcag"));
        let (technion, hungary) = (id("Israel Institute of Technology"), id("Hungary"));
        let hershko = id("Avram Hershko");
        assert!(kb.has_edge(ada, works_at, Node::Instance(haifa)));
        assert!(kb.has_edge(technion, located_in, Node::Instance(haifa)));
        assert!(!kb.has_edge(haifa, located_in, Node::Instance(karcag)));
        assert!(!kb.has_edge(karcag, located_in, Node::Instance(hungary)));
        assert_eq!(kb.num_edges(), edges, "one edge in, one edge out");
        assert_eq!(kb.triples().count(), edges);
        assert_eq!(kb.subjects(Node::Instance(haifa), works_at), &[ada]);
        assert!(kb.subjects(Node::Instance(hungary), located_in).is_empty());

        // Every op that changed the edge set marks its pairs, even when a
        // later op undid it; the no-ops mark nothing.
        let out = [ada, technion, haifa, karcag]
            .into_iter()
            .map(|s| Region::Out(s, if s == ada { works_at } else { located_in }));
        let inn = [
            Region::In(Node::Instance(haifa), works_at),
            Region::In(Node::Instance(haifa), located_in),
            Region::In(Node::Instance(karcag), located_in),
            Region::In(Node::Instance(hungary), located_in),
        ];
        assert_eq!(fp, out.chain(inn).collect::<KbFootprint>());
        assert!(!fp.contains(Region::Out(hershko, works_at)));

        // The same ops applied one delta at a time reach the same KB and,
        // united, the same footprint.
        let mut one_by_one = figure1_kb();
        let mut united = Vec::new();
        for op in d.ops() {
            let mut single = KbDelta::new();
            single.push(op.clone());
            united.extend_from_slice(one_by_one.apply_delta(&single).unwrap().regions());
        }
        assert_eq!(one_by_one.content_hash(), kb.content_hash());
        assert_eq!(KbFootprint::from_buf(&mut united), fp);
    }

    #[test]
    fn empty_and_noop_deltas_have_empty_footprints() {
        let mut kb = figure1_kb();
        let fp = kb.apply_delta(&KbDelta::new()).unwrap();
        assert!(fp.is_empty());

        // Re-inserting an existing edge and retracting a missing one both
        // leave the KB — and the footprint — untouched.
        let mut d = KbDelta::new();
        d.insert(
            "Israel Institute of Technology",
            "locatedIn",
            DeltaNode::Instance("Haifa".into()),
        );
        d.retract("Haifa", "locatedIn", DeltaNode::Instance("Karcag".into()));
        let edges = kb.num_edges();
        let fp = kb.apply_delta(&d).unwrap();
        assert!(fp.is_empty(), "no-op ops must not invalidate: {fp:?}");
        assert_eq!(kb.num_edges(), edges);
    }
}
