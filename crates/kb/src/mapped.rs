//! [`MappedKb`]: the out-of-core knowledge base backend.
//!
//! Opens a `.drkb` image (see [`crate::image`]) via a read-only mapping
//! and answers the same query surface as the in-memory
//! [`KnowledgeBase`](crate::graph::KnowledgeBase), with the same return
//! types. The image stores ids, nodes and run keys in their in-memory
//! layout, so every query is a binary search over a typed slice borrowed
//! from the mapping, and every slice a query returns is borrowed from it
//! too: nothing is decoded and nothing is allocated per query. At open
//! only the class taxonomy (tiny next to the triples) is materialized, so
//! `subsumes`/`descendants` behave identically across backends and callers
//! can hold a real [`Taxonomy`] reference.
//!
//! All validation happens in `ImageLayout::parse` at open time; the
//! query methods below index into the mapping without further checks,
//! which is sound because every offset, id, node tag and sort invariant
//! they rely on was proven there. Corrupt files fail `open` with a typed
//! [`KbImageError`] — they never reach a query.
//!
//! An id past the image's counts is answered as the heap KB answers it:
//! the CSR reads (`instance_classes`, `has_type`, `instances_of`,
//! `direct_instances_of`, `preds_of`) return empty. The name reads
//! (`class_name`, `pred_name`, `instance_label`, `literal_value`) panic
//! on an out-of-range id, on both backends.

use std::path::{Path, PathBuf};

use crate::graph;
use crate::ids::{ClassId, InstanceId, LiteralId, Node, PredId};
use crate::image::{section, u64_at, Image, ImageLayout, KbImageError, OspKey, Pod, Sec, SpoKey};
use crate::taxonomy::Taxonomy;

/// A knowledge base served from a memory-mapped `.drkb` image.
#[derive(Debug)]
pub struct MappedKb {
    image: Image,
    taxonomy: Taxonomy,
    generation: u64,
    path: PathBuf,
}

impl MappedKb {
    /// Opens and fully validates an image. Every corruption mode — short
    /// file, flipped bit, foreign magic, future version, inconsistent
    /// structure — comes back as a [`KbImageError`].
    pub fn open(path: &Path) -> Result<Self, KbImageError> {
        let image = Image::open(path)?;

        // Materialize the taxonomy by replaying the packed parent edges in
        // order — the same calls the original builder made, so `parents`,
        // `descendants`, and `depth` come out identical to the oracle.
        let mut taxonomy = Taxonomy::new();
        let n = image.layout().num_classes;
        for c in 0..n {
            taxonomy.ensure(ClassId::from_index(c));
        }
        for c in 0..n {
            for &p in image.csr_row(section::TAX_PARENTS, n, c) {
                taxonomy.add_subclass(ClassId::from_index(c), p);
            }
        }
        if taxonomy.finalize().is_err() {
            return Err(KbImageError::Malformed("taxonomy has a cycle"));
        }

        Ok(MappedKb {
            image,
            taxonomy,
            generation: graph::alloc_generation(),
            path: path.to_path_buf(),
        })
    }

    /// Opens an image and additionally demands it packs the KB with the
    /// given `content_hash`, the image equivalent of the `.drsnap` key
    /// check. Fails with [`KbImageError::KeyMismatch`] otherwise.
    pub fn open_expecting(path: &Path, content_hash: u64) -> Result<Self, KbImageError> {
        let kb = Self::open(path)?;
        if kb.content_hash() != content_hash {
            return Err(KbImageError::KeyMismatch {
                found: kb.content_hash(),
                expected: content_hash,
            });
        }
        Ok(kb)
    }

    fn layout(&self) -> &ImageLayout {
        self.image.layout()
    }

    /// The image path this KB was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Process-unique generation, drawn from the same counter as in-memory
    /// KBs so cache-registry keys never collide across backends.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The packed KB's deterministic content hash (read from the header).
    pub fn content_hash(&self) -> u64 {
        self.layout().content_hash
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.layout().num_instances
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.layout().num_classes
    }

    /// Number of predicates.
    pub fn num_preds(&self) -> usize {
        self.layout().num_preds
    }

    /// Number of literals.
    pub fn num_literals(&self) -> usize {
        self.layout().num_literals
    }

    /// Number of distinct triples.
    pub fn num_edges(&self) -> usize {
        self.layout().num_edges as usize
    }

    /// The class taxonomy (materialized and finalized at open).
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    // ---- string reads ------------------------------------------------

    fn table_str(&self, table: Sec<u8>, i: usize) -> &str {
        let offs = self.image.bytes(table);
        let heap = self.image.bytes(section::STRINGS);
        let start = u64_at(offs, i * 8) as usize;
        let end = u64_at(offs, (i + 1) * 8) as usize;
        // Validated as UTF-8 at open.
        std::str::from_utf8(&heap[start..end]).expect("validated at open")
    }

    /// The interned name of a class.
    pub fn class_name(&self, c: ClassId) -> &str {
        self.table_str(section::CLASS_STR, c.index())
    }

    /// The interned name of a predicate.
    pub fn pred_name(&self, p: PredId) -> &str {
        self.table_str(section::PRED_STR, p.index())
    }

    /// The label of an instance.
    pub fn instance_label(&self, i: InstanceId) -> &str {
        self.table_str(section::INST_STR, i.index())
    }

    /// The value of a literal.
    pub fn literal_value(&self, l: LiteralId) -> &str {
        self.table_str(section::LIT_STR, l.index())
    }

    /// The textual value behind either node kind.
    pub fn node_value(&self, n: Node) -> &str {
        match n {
            Node::Instance(i) => self.instance_label(i),
            Node::Literal(l) => self.literal_value(l),
        }
    }

    // ---- sorted-run lookups ------------------------------------------

    /// The ids of lookup table `by_name` whose string is `want`: a range,
    /// because only instance labels can repeat.
    fn named<'a, T: Pod>(
        &'a self,
        by_name: Sec<T>,
        name_of: impl Fn(&'a Self, T) -> &'a str,
        want: &str,
    ) -> &'a [T] {
        let ids = self.image.run(by_name);
        let lo = ids.partition_point(|&id| name_of(self, id) < want);
        let len = ids[lo..].partition_point(|&id| name_of(self, id) == want);
        &ids[lo..lo + len]
    }

    /// The class with this exact name, if interned.
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        self.named(section::CLASS_BY_NAME, Self::class_name, name)
            .first()
            .copied()
    }

    /// The predicate with this exact name, if interned.
    pub fn pred_named(&self, name: &str) -> Option<PredId> {
        self.named(section::PRED_BY_NAME, Self::pred_name, name)
            .first()
            .copied()
    }

    /// The literal with this exact value, if interned.
    pub fn literal_with_value(&self, value: &str) -> Option<LiteralId> {
        self.named(section::LIT_BY_VALUE, Self::literal_value, value)
            .first()
            .copied()
    }

    /// All instances labeled exactly `label`, ascending by id (homonyms
    /// are real: two cities named "Springfield" are two instances).
    pub fn instances_labeled(&self, label: &str) -> &[InstanceId] {
        self.named(section::INST_BY_LABEL, Self::instance_label, label)
    }

    // ---- CSR reads ---------------------------------------------------

    /// The classes this instance was directly declared with, in
    /// declaration order.
    pub fn instance_classes(&self, i: InstanceId) -> &[ClassId] {
        self.image
            .csr_row(section::INST_CLASSES, self.num_instances(), i.index())
    }

    /// Whether `i` is an instance of `c`, honoring the taxonomy.
    pub fn has_type(&self, i: InstanceId, c: ClassId) -> bool {
        self.instance_classes(i)
            .iter()
            .any(|&d| self.taxonomy.subsumes(c, d))
    }

    /// All instances of `c`, including instances of its subclasses,
    /// ascending by id.
    pub fn instances_of(&self, c: ClassId) -> &[InstanceId] {
        self.image
            .csr_row(section::CLOSED_INST, self.num_classes(), c.index())
    }

    /// Instances directly declared with class `c`, ascending by id.
    pub fn direct_instances_of(&self, c: ClassId) -> &[InstanceId] {
        self.image
            .csr_row(section::DIRECT_INST, self.num_classes(), c.index())
    }

    /// The predicates on outgoing edges of `s`, ascending.
    pub fn preds_of(&self, s: InstanceId) -> &[PredId] {
        self.image
            .csr_row(section::PREDS_OF, self.num_instances(), s.index())
    }

    // ---- triple runs -------------------------------------------------

    /// The values of the run keyed `key` in a run index, empty if no run
    /// has that key.
    fn run_values<K: Pod + Ord, V: Pod>(
        &self,
        keys: Sec<K>,
        offs: Sec<u32>,
        vals: Sec<V>,
        key: K,
    ) -> &[V] {
        let Ok(r) = self.image.run(keys).binary_search(&key) else {
            return &[];
        };
        let offs = self.image.run(offs);
        &self.image.run(vals)[offs[r] as usize..offs[r + 1] as usize]
    }

    /// All objects of `(s, p)` triples, in `Node` order.
    pub fn objects(&self, s: InstanceId, p: PredId) -> &[Node] {
        use section::*;
        self.run_values(SPO_KEYS, SPO_OFFS, SPO_NODES, SpoKey { s, p })
    }

    /// Whether the triple `(s, p, o)` is in the KB.
    pub fn has_edge(&self, s: InstanceId, p: PredId, o: Node) -> bool {
        self.objects(s, p).binary_search(&o).is_ok()
    }

    /// All subjects with a `(s, p, o)` triple, ascending by id.
    pub fn subjects(&self, o: Node, p: PredId) -> &[InstanceId] {
        use section::*;
        self.run_values(OSP_KEYS, OSP_OFFS, OSP_SUBJS, OspKey { o, p })
    }

    /// All class ids.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> {
        (0..self.num_classes()).map(ClassId::from_index)
    }

    /// All predicate ids.
    pub fn preds(&self) -> impl Iterator<Item = PredId> {
        (0..self.num_preds()).map(PredId::from_index)
    }

    /// All instance ids.
    pub fn instances(&self) -> impl Iterator<Item = InstanceId> {
        (0..self.num_instances()).map(InstanceId::from_index)
    }

    /// Every triple, in strictly ascending `(s, p, o)` order: the SPO keys
    /// are sorted, and so is every run.
    pub fn triples(&self) -> impl Iterator<Item = (InstanceId, PredId, Node)> + '_ {
        let keys = self.image.run(section::SPO_KEYS);
        let offs = self.image.run(section::SPO_OFFS);
        let nodes = self.image.run(section::SPO_NODES);
        keys.iter().zip(offs.windows(2)).flat_map(move |(k, w)| {
            nodes[w[0] as usize..w[1] as usize]
                .iter()
                .map(move |&o| (k.s, k.p, o))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{names, nobel_mini_kb};
    use crate::image::write_image;

    fn scratch_image(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dr-mapped-{}-{tag}.drkb", std::process::id()))
    }

    #[test]
    fn roundtrip_matches_oracle_on_nobel_mini() {
        let kb = nobel_mini_kb();
        let path = scratch_image("roundtrip");
        write_image(&path, &kb).unwrap();
        let mapped = MappedKb::open(&path).unwrap();

        assert_eq!(mapped.content_hash(), kb.content_hash());
        assert_ne!(mapped.generation(), kb.generation());
        assert_eq!(mapped.num_instances(), kb.num_instances());
        assert_eq!(mapped.num_edges(), kb.num_edges());

        let laureate = kb.class_named(names::LAUREATE).unwrap();
        assert_eq!(mapped.class_named(names::LAUREATE), Some(laureate));
        assert_eq!(mapped.class_named("NoSuchClass"), None);
        assert_eq!(mapped.instances_of(laureate), kb.instances_of(laureate));

        for i in kb.instances() {
            assert_eq!(mapped.instance_label(i), kb.instance_label(i));
            assert_eq!(mapped.preds_of(i), kb.preds_of(i));
            for &p in kb.preds_of(i) {
                assert_eq!(mapped.objects(i, p), kb.objects(i, p));
            }
        }
        let mut mem: Vec<_> = kb.triples().collect();
        let mut img: Vec<_> = mapped.triples().collect();
        mem.sort_unstable();
        img.sort_unstable();
        assert_eq!(mem, img);

        for (s, p, o) in kb.triples() {
            assert!(mapped.has_edge(s, p, o));
            assert!(mapped.subjects(o, p).contains(&s));
        }

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_expecting_rejects_wrong_key() {
        let kb = nobel_mini_kb();
        let path = scratch_image("key");
        write_image(&path, &kb).unwrap();
        assert!(MappedKb::open_expecting(&path, kb.content_hash()).is_ok());
        let err = MappedKb::open_expecting(&path, kb.content_hash() ^ 1).unwrap_err();
        assert!(matches!(err, KbImageError::KeyMismatch { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_image_is_absence() {
        let err = MappedKb::open(Path::new("/nonexistent/dr.drkb")).unwrap_err();
        assert!(err.is_absence(), "{err}");
    }

    #[test]
    fn packing_is_deterministic() {
        let a = crate::image::pack(&nobel_mini_kb());
        let b = crate::image::pack(&nobel_mini_kb());
        assert_eq!(a, b, "same triples must pack byte-identically");
    }
}
