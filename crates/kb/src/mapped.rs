//! [`MappedKb`]: the out-of-core knowledge base backend.
//!
//! Opens a `.drkb` image (see [`crate::image`]) via [`MmapFile`] and
//! answers the same query surface as the in-memory
//! [`KnowledgeBase`](crate::graph::KnowledgeBase) by binary-searching the
//! image's sorted runs in place. Nothing proportional to the KB is ever
//! allocated at open — only the class taxonomy (tiny next to the triples)
//! is materialized, so `subsumes`/`descendants` behave identically across
//! backends and callers can hold a real [`Taxonomy`] reference.
//!
//! All validation happens in `ImageLayout::parse` at open time; the
//! query methods below index into the mapping without further checks,
//! which is sound because every offset, id, and sort invariant they rely
//! on was proven there. Corrupt files fail `open` with a typed
//! [`KbImageError`] — they never reach a query.

use std::path::{Path, PathBuf};

use crate::graph;
use crate::ids::{ClassId, InstanceId, LiteralId, Node, PredId};
use crate::image::{decode_node, encode_node, section, u32_at, u64_at, ImageLayout, KbImageError};
use crate::mmapfile::MmapFile;
use crate::taxonomy::Taxonomy;

/// A knowledge base served from a memory-mapped `.drkb` image.
///
/// Queries return owned vectors where the in-memory KB returns slices
/// (the image stores encoded u64 nodes, not `Node` structs); the
/// [`KbRef`](crate::view::KbRef) dispatch layer papers over the
/// difference with `Cow`.
#[derive(Debug)]
pub struct MappedKb {
    data: MmapFile,
    layout: ImageLayout,
    taxonomy: Taxonomy,
    generation: u64,
    path: PathBuf,
}

impl MappedKb {
    /// Opens and fully validates an image. Every corruption mode — short
    /// file, flipped bit, foreign magic, future version, inconsistent
    /// structure — comes back as a [`KbImageError`].
    pub fn open(path: &Path) -> Result<Self, KbImageError> {
        let data = MmapFile::open(path)?;
        let layout = ImageLayout::parse(&data)?;

        // Materialize the taxonomy by replaying the packed parent edges in
        // order — the same calls the original builder made, so `parents`,
        // `descendants`, and `depth` come out identical to the oracle.
        let mut taxonomy = Taxonomy::new();
        let sec = layout.section(&data, section::TAX_PARENTS);
        let n = layout.num_classes;
        for c in 0..n {
            taxonomy.ensure(ClassId::from_index(c));
        }
        for c in 0..n {
            let start = u32_at(sec, c * 4) as usize;
            let end = u32_at(sec, (c + 1) * 4) as usize;
            for j in start..end {
                let p = u32_at(sec, (n + 1 + j) * 4) as usize;
                taxonomy.add_subclass(ClassId::from_index(c), ClassId::from_index(p));
            }
        }
        if taxonomy.finalize().is_err() {
            return Err(KbImageError::Malformed("taxonomy has a cycle"));
        }

        Ok(MappedKb {
            layout,
            taxonomy,
            generation: graph::alloc_generation(),
            path: path.to_path_buf(),
            data,
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
        self.layout.content_hash
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.layout.num_instances
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.layout.num_classes
    }

    /// Number of predicates.
    pub fn num_preds(&self) -> usize {
        self.layout.num_preds
    }

    /// Number of literals.
    pub fn num_literals(&self) -> usize {
        self.layout.num_literals
    }

    /// Number of distinct triples.
    pub fn num_edges(&self) -> usize {
        self.layout.num_edges as usize
    }

    /// The class taxonomy (materialized and finalized at open).
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    // ---- string reads ------------------------------------------------

    fn table_str(&self, table: usize, i: usize) -> &str {
        let sec = self.layout.section(&self.data, table);
        let heap = self.layout.section(&self.data, section::STRINGS);
        let start = u64_at(sec, i * 8) as usize;
        let end = u64_at(sec, (i + 1) * 8) as usize;
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

    /// First index in `0..n` where `pred` is false (`pred` monotone
    /// true→false) — `partition_point` over image records.
    fn partition(&self, n: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn named_id(&self, lookup: usize, strs: usize, n: usize, want: &str) -> Option<u32> {
        let sec = self.layout.section(&self.data, lookup);
        let at = |i: usize| u32_at(sec, i * 4);
        let lo = self.partition(n, |i| self.table_str(strs, at(i) as usize) < want);
        (lo < n && self.table_str(strs, at(lo) as usize) == want).then(|| at(lo))
    }

    /// The class with this exact name, if interned.
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        self.named_id(
            section::CLASS_BY_NAME,
            section::CLASS_STR,
            self.num_classes(),
            name,
        )
        .map(|id| ClassId::from_index(id as usize))
    }

    /// The predicate with this exact name, if interned.
    pub fn pred_named(&self, name: &str) -> Option<PredId> {
        self.named_id(
            section::PRED_BY_NAME,
            section::PRED_STR,
            self.num_preds(),
            name,
        )
        .map(|id| PredId::from_index(id as usize))
    }

    /// The literal with this exact value, if interned.
    pub fn literal_with_value(&self, value: &str) -> Option<LiteralId> {
        self.named_id(
            section::LIT_BY_VALUE,
            section::LIT_STR,
            self.num_literals(),
            value,
        )
        .map(|id| LiteralId::from_index(id as usize))
    }

    /// All instances labeled exactly `label`, ascending by id (homonyms
    /// are real: two cities named "Springfield" are two instances).
    pub fn instances_labeled(&self, label: &str) -> Vec<InstanceId> {
        let n = self.num_instances();
        let sec = self.layout.section(&self.data, section::INST_BY_LABEL);
        let at = |i: usize| u32_at(sec, i * 4);
        let label_at = |i: usize| self.table_str(section::INST_STR, at(i) as usize);
        let lo = self.partition(n, |i| label_at(i) < label);
        let hi = self.partition(n, |i| label_at(i) <= label);
        (lo..hi)
            .map(|i| InstanceId::from_index(at(i) as usize))
            .collect()
    }

    // ---- CSR reads ---------------------------------------------------

    fn csr_row(&self, idx: usize, n: usize, i: usize) -> impl Iterator<Item = u32> + '_ {
        let sec = self.layout.section(&self.data, idx);
        let start = u32_at(sec, i * 4) as usize;
        let end = u32_at(sec, (i + 1) * 4) as usize;
        (start..end).map(move |j| u32_at(sec, (n + 1 + j) * 4))
    }

    /// The classes this instance was directly declared with, in
    /// declaration order.
    pub fn instance_classes(&self, i: InstanceId) -> Vec<ClassId> {
        self.csr_row(section::INST_CLASSES, self.num_instances(), i.index())
            .map(|c| ClassId::from_index(c as usize))
            .collect()
    }

    /// Whether `i` is an instance of `c`, honoring the taxonomy.
    pub fn has_type(&self, i: InstanceId, c: ClassId) -> bool {
        self.csr_row(section::INST_CLASSES, self.num_instances(), i.index())
            .any(|d| self.taxonomy.subsumes(c, ClassId::from_index(d as usize)))
    }

    /// All instances of `c`, including instances of its subclasses,
    /// ascending by id.
    pub fn instances_of(&self, c: ClassId) -> Vec<InstanceId> {
        self.csr_row(section::CLOSED_INST, self.num_classes(), c.index())
            .map(|i| InstanceId::from_index(i as usize))
            .collect()
    }

    /// Instances directly declared with class `c`, ascending by id.
    pub fn direct_instances_of(&self, c: ClassId) -> Vec<InstanceId> {
        self.csr_row(section::DIRECT_INST, self.num_classes(), c.index())
            .map(|i| InstanceId::from_index(i as usize))
            .collect()
    }

    /// The predicates on outgoing edges of `s`, ascending.
    pub fn preds_of(&self, s: InstanceId) -> Vec<PredId> {
        self.csr_row(section::PREDS_OF, self.num_instances(), s.index())
            .map(|p| PredId::from_index(p as usize))
            .collect()
    }

    // ---- triple runs -------------------------------------------------

    /// The SPO run index for `(s, p)`, if any triples exist.
    fn spo_run(&self, s: InstanceId, p: PredId) -> Option<usize> {
        let keys = self.layout.section(&self.data, section::SPO_KEYS);
        let want = (s.index() as u64) << 32 | p.index() as u64;
        let key_at = |r: usize| (u32_at(keys, r * 8) as u64) << 32 | u32_at(keys, r * 8 + 4) as u64;
        let lo = self.partition(self.layout.num_spo, |r| key_at(r) < want);
        (lo < self.layout.num_spo && key_at(lo) == want).then_some(lo)
    }

    fn spo_run_bounds(&self, r: usize) -> (usize, usize) {
        let offs = self.layout.section(&self.data, section::SPO_OFFS);
        (
            u32_at(offs, r * 4) as usize,
            u32_at(offs, (r + 1) * 4) as usize,
        )
    }

    /// All objects of `(s, p)` triples, in `Node` order.
    pub fn objects(&self, s: InstanceId, p: PredId) -> Vec<Node> {
        let Some(r) = self.spo_run(s, p) else {
            return Vec::new();
        };
        let (start, end) = self.spo_run_bounds(r);
        let nodes = self.layout.section(&self.data, section::SPO_NODES);
        (start..end)
            .map(|j| decode_node(u64_at(nodes, j * 8)).expect("validated at open"))
            .collect()
    }

    /// Whether the triple `(s, p, o)` is in the KB.
    pub fn has_edge(&self, s: InstanceId, p: PredId, o: Node) -> bool {
        let Some(r) = self.spo_run(s, p) else {
            return false;
        };
        let (start, end) = self.spo_run_bounds(r);
        let nodes = self.layout.section(&self.data, section::SPO_NODES);
        let want = encode_node(o);
        let at = |j: usize| u64_at(nodes, (start + j) * 8);
        let lo = self.partition(end - start, |j| at(j) < want);
        lo < end - start && at(lo) == want
    }

    /// All subjects with a `(s, p, o)` triple, ascending by id.
    pub fn subjects(&self, o: Node, p: PredId) -> Vec<InstanceId> {
        let keys = self.layout.section(&self.data, section::OSP_KEYS);
        let want = (encode_node(o), p.index() as u32);
        let key_at = |r: usize| (u64_at(keys, r * 12), u32_at(keys, r * 12 + 8));
        let lo = self.partition(self.layout.num_osp, |r| key_at(r) < want);
        if lo >= self.layout.num_osp || key_at(lo) != want {
            return Vec::new();
        }
        let offs = self.layout.section(&self.data, section::OSP_OFFS);
        let subs = self.layout.section(&self.data, section::OSP_SUBJS);
        let start = u32_at(offs, lo * 4) as usize;
        let end = u32_at(offs, (lo + 1) * 4) as usize;
        (start..end)
            .map(|j| InstanceId::from_index(u32_at(subs, j * 4) as usize))
            .collect()
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
    /// are sorted, and the encoded-node order within a run is `Node`'s.
    pub fn triples(&self) -> impl Iterator<Item = (InstanceId, PredId, Node)> + '_ {
        let keys = self.layout.section(&self.data, section::SPO_KEYS);
        let nodes = self.layout.section(&self.data, section::SPO_NODES);
        (0..self.layout.num_spo).flat_map(move |r| {
            let s = InstanceId::from_index(u32_at(keys, r * 8) as usize);
            let p = PredId::from_index(u32_at(keys, r * 8 + 4) as usize);
            let (start, end) = self.spo_run_bounds(r);
            (start..end).map(move |j| {
                (
                    s,
                    p,
                    decode_node(u64_at(nodes, j * 8)).expect("validated at open"),
                )
            })
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
