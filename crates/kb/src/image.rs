//! The `.drkb` on-disk KB image format (DESIGN.md §8).
//!
//! A knowledge base packed into one flat, versioned binary file that
//! [`MappedKb`](crate::mapped::MappedKb) can open by mmap and query with
//! binary searches — no parse, no allocation proportional to KB size. The
//! conventions mirror the `.drsnap` value-cache snapshots: little-endian
//! fixed-width fields, a magic/version/`content_hash` header, and a
//! trailing FxHash checksum that is verified *before* any field is
//! interpreted, so torn writes and bit rot surface as a typed error rather
//! than a panic or a silently wrong answer.
//!
//! ## Layout
//!
//! ```text
//! header (64 bytes)
//!   magic            [u8;4]  "DRKB"
//!   version          u32
//!   content_hash     u64     KnowledgeBase::content_hash of the packed KB
//!   num_classes      u32
//!   num_preds        u32
//!   num_instances    u32
//!   num_literals     u32
//!   num_edges        u64
//!   num_spo_runs     u32     distinct (subject, predicate) pairs
//!   num_osp_runs     u32     distinct (object, predicate) pairs
//!   strings_len      u64     length of the string heap section
//!   reserved         u64     must be zero
//! section table (20 × { offset u64, len u64 })
//! sections (contiguous, in table order)
//! checksum           u64     FxHash of every preceding byte
//! ```
//!
//! Sections (all integers little-endian):
//!
//! | # | name          | contents |
//! |---|---------------|----------|
//! | 0 | Strings       | one UTF-8 heap: class names, pred names, instance labels, literal values, in id order, zero-padded to a multiple of 4 bytes |
//! | 1–4 | *StrOffs    | per id space, `(n+1)` × u64 heap offsets; string `i` is `heap[off[i]..off[i+1]]` |
//! | 5–6 | *ByName     | class/pred ids sorted by name — binary-searched by `class_named`/`pred_named` |
//! | 7 | InstByLabel   | instance ids sorted by `(label, id)` — range-scanned by `instances_labeled` |
//! | 8 | LitByValue    | literal ids sorted by value |
//! | 9 | TaxParents    | CSR over classes: `subClassOf` parent lists in insertion order |
//! | 10 | InstClasses  | CSR over instances: direct classes in insertion order |
//! | 11 | DirectInst   | CSR over classes: sorted direct instances |
//! | 12 | ClosedInst   | CSR over classes: sorted instances incl. taxonomy closure |
//! | 13 | PredsOf      | CSR over instances: sorted outgoing predicates |
//! | 14–16 | Spo*      | sorted `(s, p)` keys, u32 run offsets, object nodes per run (sorted) |
//! | 17–19 | Osp*      | sorted `(o, p)` keys, u32 run offsets, subject ids per run (sorted) |
//! ```text
//! CSR over n rows = (n+1) × u32 offsets, then the concatenated u32 rows.
//! Node            = two u32 words (tag, id), tag 0 an instance and 1 a
//!                   literal: the `repr(u32)` layout of `Node`, ordered
//!                   like its derived `Ord`.
//! SPO key         = (s, p), 8 bytes; OSP key = (node, p), 12 bytes.
//! ```
//!
//! ## Alignment
//!
//! Header and section table take 384 bytes, and every section is a whole
//! number of u32 words (the heap is zero-padded), so every section starts
//! 4-aligned. A mapping is page-aligned, so [`MappedKb`] reads ids, nodes
//! and run keys in place, as slices of their in-memory types borrowed
//! from the mapping; bytes that are not 4-aligned in memory are refused at
//! open. The u64 string offsets are read bytewise, since nothing keeps
//! them 8-aligned.
//!
//! [`pack`] is deterministic: the same finalized KB (same `content_hash`)
//! always produces byte-identical images, pinned by a golden-file test.
//!
//! [`MappedKb`]: crate::mapped::MappedKb

use std::hash::Hasher;
use std::io;
use std::marker::PhantomData;
use std::mem::size_of;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::KnowledgeBase;
use crate::hash::FxHasher;
use crate::ids::{ClassId, InstanceId, LiteralId, Node, PredId};
use crate::mmapfile::MmapFile;

/// First bytes of every image.
pub const MAGIC: [u8; 4] = *b"DRKB";
/// Current format version; bump on any layout change.
pub const FORMAT_VERSION: u32 = 2;
/// Canonical file extension (`.drkb`).
pub const EXTENSION: &str = "drkb";

pub(crate) const NUM_SECTIONS: usize = 20;
pub(crate) const HEADER_LEN: usize = 64;
pub(crate) const BODY_START: usize = HEADER_LEN + NUM_SECTIONS * 16;
/// Smallest plausible image: header + section table + checksum.
pub const MIN_LEN: usize = BODY_START + 8;

// Images are read in place, so the in-memory byte order must be the
// file's.
const _: () = assert!(
    cfg!(target_endian = "little"),
    "`.drkb` images are read in place and need a little-endian target"
);

/// A section's index in the table, typed with the element its body holds:
/// [`Image::run`] reads a section only as that type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sec<T>(usize, PhantomData<fn() -> T>);

impl<T> Sec<T> {
    const fn at(idx: usize) -> Self {
        Sec(idx, PhantomData)
    }
}

/// Marks a CSR section whose rows hold `T`s: read only by
/// [`Image::csr_row`], never whole by [`Image::run`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Csr<T>(PhantomData<T>);

/// The sections (see the module docs for contents). Sections read only
/// bytewise are typed `u8`.
pub(crate) mod section {
    use super::{Csr, OspKey, Sec, SpoKey};
    use crate::ids::{ClassId, InstanceId, LiteralId, Node, PredId};

    pub const STRINGS: Sec<u8> = Sec::at(0);
    pub const CLASS_STR: Sec<u8> = Sec::at(1);
    pub const PRED_STR: Sec<u8> = Sec::at(2);
    pub const INST_STR: Sec<u8> = Sec::at(3);
    pub const LIT_STR: Sec<u8> = Sec::at(4);
    pub const CLASS_BY_NAME: Sec<ClassId> = Sec::at(5);
    pub const PRED_BY_NAME: Sec<PredId> = Sec::at(6);
    pub const INST_BY_LABEL: Sec<InstanceId> = Sec::at(7);
    pub const LIT_BY_VALUE: Sec<LiteralId> = Sec::at(8);
    pub const TAX_PARENTS: Sec<Csr<ClassId>> = Sec::at(9);
    pub const INST_CLASSES: Sec<Csr<ClassId>> = Sec::at(10);
    pub const DIRECT_INST: Sec<Csr<InstanceId>> = Sec::at(11);
    pub const CLOSED_INST: Sec<Csr<InstanceId>> = Sec::at(12);
    pub const PREDS_OF: Sec<Csr<PredId>> = Sec::at(13);
    pub const SPO_KEYS: Sec<SpoKey> = Sec::at(14);
    pub const SPO_OFFS: Sec<u32> = Sec::at(15);
    pub const SPO_NODES: Sec<Node> = Sec::at(16);
    pub const OSP_KEYS: Sec<OspKey> = Sec::at(17);
    pub const OSP_OFFS: Sec<u32> = Sec::at(18);
    pub const OSP_SUBJS: Sec<InstanceId> = Sec::at(19);
}

/// The key of an SPO run, as the image stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(C)]
pub(crate) struct SpoKey {
    pub s: InstanceId,
    pub p: PredId,
}

/// The key of an OSP run, as the image stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(C)]
pub(crate) struct OspKey {
    pub o: Node,
    pub p: PredId,
}

const _: () = assert!(size_of::<SpoKey>() == 8 && size_of::<OspKey>() == 12);

/// Types an image stores in their in-memory layout, so a section of them
/// can be read in place.
///
/// # Safety
///
/// An implementor is made of `u32` words only: alignment at most 4, no
/// padding, and every bit pattern the validator accepts for its sections
/// is a valid value. Any bits are a valid `u32` or id; a [`Node`] needs a
/// tag word of 0 or 1, which `ImageLayout::validate` checks for every node
/// in the SPO runs and OSP keys, the only sections typed with it.
pub(crate) unsafe trait Pod: Copy {}

// SAFETY: plain words; see `Pod`.
unsafe impl Pod for u32 {}
// SAFETY: `repr(transparent)` over `u32`.
unsafe impl Pod for InstanceId {}
// SAFETY: `repr(transparent)` over `u32`.
unsafe impl Pod for ClassId {}
// SAFETY: `repr(transparent)` over `u32`.
unsafe impl Pod for LiteralId {}
// SAFETY: `repr(transparent)` over `u32`.
unsafe impl Pod for PredId {}
// SAFETY: `repr(u32)`: a tag word, then a `repr(transparent)` id; the
// validator admits only tags 0 and 1.
unsafe impl Pod for Node {}
// SAFETY: `repr(C)` over two ids, 8 bytes, no padding.
unsafe impl Pod for SpoKey {}
// SAFETY: `repr(C)` over a `Node` and an id, 12 bytes, no padding.
unsafe impl Pod for OspKey {}

/// Reads `bytes` in place as a slice of `T`.
///
/// # Panics
///
/// If `bytes` is not aligned for `T` or not a whole number of `T`s.
/// `ImageLayout::parse` refuses images where a section could be either.
fn cast<T: Pod>(bytes: &[u8]) -> &[T] {
    let ptr = bytes.as_ptr().cast::<T>();
    assert!(
        ptr.is_aligned() && bytes.len().is_multiple_of(size_of::<T>()),
        "image section is not a whole, aligned run of its type"
    );
    // SAFETY: `ptr` is aligned for `T` and points at `bytes.len()`
    // initialized bytes, exactly `len / size_of::<T>()` values, borrowed
    // for the returned lifetime. `T: Pod` has no padding, and its bits are
    // valid: any bits are a valid `u32` (what `words` reads before
    // validation), and `Image::run` reads only images that passed
    // `ImageLayout::parse`, which checked every `Node` tag at open.
    unsafe { std::slice::from_raw_parts(ptr, bytes.len() / size_of::<T>()) }
}

/// A section's bytes as little-endian `u32` words.
fn words(bytes: &[u8]) -> &[u32] {
    cast(bytes)
}

/// Why an image failed to open or write. Mirrors `SnapshotError` in
/// `dr-core`: every corruption mode maps to a typed variant, never a panic.
#[derive(Debug)]
pub enum KbImageError {
    /// Filesystem failure (missing file, permissions, short write).
    Io(io::Error),
    /// File shorter than the fixed header + section table + checksum.
    TooShort(usize),
    /// First four bytes are not `DRKB` — not an image at all.
    BadMagic([u8; 4]),
    /// An image from a different (likely future) format version.
    BadVersion(u32),
    /// Stored checksum does not match the bytes — torn write or bit rot.
    ChecksumMismatch {
        /// Checksum read from the trailer.
        stored: u64,
        /// Checksum computed over the preceding bytes.
        computed: u64,
    },
    /// The image is intact but packs a different KB than the caller
    /// expected (`content_hash` key mismatch).
    KeyMismatch {
        /// The `content_hash` in the image header.
        found: u64,
        /// The `content_hash` the caller demanded.
        expected: u64,
    },
    /// Checksum passed but the structure is inconsistent — a packer bug
    /// or a deliberately crafted file; the message names the first
    /// violated invariant.
    Malformed(&'static str),
}

impl KbImageError {
    /// True for the one non-corruption case — the file simply is not
    /// there. Everything else means an image existed and was bad.
    pub fn is_absence(&self) -> bool {
        matches!(self, KbImageError::Io(e) if e.kind() == io::ErrorKind::NotFound)
    }
}

impl std::fmt::Display for KbImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KbImageError::Io(e) => write!(f, "io error: {e}"),
            KbImageError::TooShort(len) => {
                write!(f, "file too short for a KB image ({len} bytes)")
            }
            KbImageError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            KbImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            KbImageError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#x}, computed {computed:#x})"
            ),
            KbImageError::KeyMismatch { found, expected } => {
                write!(f, "image packs KB {found:#x}, expected {expected:#x}")
            }
            KbImageError::Malformed(what) => write!(f, "malformed image: {what}"),
        }
    }
}

impl std::error::Error for KbImageError {}

impl From<io::Error> for KbImageError {
    fn from(e: io::Error) -> Self {
        KbImageError::Io(e)
    }
}

/// The checksum over everything before the 8-byte trailer: the same
/// FxHash-of-all-bytes the `.drsnap` format uses. Public so corruption
/// tests can re-seal a deliberately damaged body.
pub fn image_checksum(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.finish()
}

fn u32_at(b: &[u8], pos: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&b[pos..pos + 4]);
    u32::from_le_bytes(buf)
}

pub(crate) fn u64_at(b: &[u8], pos: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&b[pos..pos + 8]);
    u64::from_le_bytes(buf)
}

fn small(n: usize) -> u32 {
    u32::try_from(n).expect("image section exceeds u32 range")
}

fn push_u32s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = u32>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `n` strings to the shared heap and writes their `(n+1)` u64
/// offset table into `out`.
fn push_string_table<'a>(
    heap: &mut Vec<u8>,
    out: &mut Vec<u8>,
    strings: impl Iterator<Item = &'a str>,
) {
    for s in strings {
        out.extend_from_slice(&(heap.len() as u64).to_le_bytes());
        heap.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&(heap.len() as u64).to_le_bytes());
}

/// A CSR section: `(n+1)` u32 offsets, then the concatenated rows.
fn csr<I: IntoIterator<Item = u32>>(n: usize, row: impl Fn(usize) -> I) -> Vec<u8> {
    let mut offs = vec![0];
    let mut data = Vec::new();
    for i in 0..n {
        data.extend(row(i));
        offs.push(small(data.len()));
    }
    let mut out = Vec::new();
    push_u32s(&mut out, offs.into_iter().chain(data));
    out
}

/// A lookup table: the ids `0..n` sorted by their strings, ties broken
/// by id.
fn by_string<'a>(n: usize, string: impl Fn(usize) -> &'a str) -> Vec<u8> {
    let mut ids: Vec<u32> = (0..small(n)).collect();
    ids.sort_unstable_by_key(|&id| (string(id as usize), id));
    let mut out = Vec::new();
    push_u32s(&mut out, ids);
    out
}

/// Writes `n` in `Node`'s in-memory layout: its tag word, then its id.
fn push_node(out: &mut Vec<u8>, n: Node) {
    match n {
        Node::Instance(i) => push_u32s(out, [0, i.0]),
        Node::Literal(l) => push_u32s(out, [1, l.0]),
    }
}

/// Packs `kb` into image bytes. Deterministic: a KB with the same triples
/// (same `content_hash`) always packs to byte-identical output.
pub fn pack(kb: &KnowledgeBase) -> Vec<u8> {
    use section::*;
    let nc = kb.num_classes();
    let np = kb.num_preds();
    let ni = kb.num_instances();
    let nl = kb.num_literals();
    let ne = kb.num_edges() as u64;
    assert!(
        ne <= u32::MAX as u64,
        "image run offsets are u32: {ne} edges exceed the format limit"
    );

    let mut sections: Vec<Vec<u8>> = vec![Vec::new(); NUM_SECTIONS];

    // Strings: one heap, four offset tables, all in id order; the heap is
    // zero-padded so every later section starts 4-aligned.
    let mut heap: Vec<u8> = Vec::new();
    push_string_table(
        &mut heap,
        &mut sections[CLASS_STR.0],
        kb.classes().map(|c| kb.class_name(c)),
    );
    push_string_table(
        &mut heap,
        &mut sections[PRED_STR.0],
        kb.preds().map(|p| kb.pred_name(p)),
    );
    push_string_table(
        &mut heap,
        &mut sections[INST_STR.0],
        kb.instances().map(|i| kb.instance_label(i)),
    );
    push_string_table(
        &mut heap,
        &mut sections[LIT_STR.0],
        (0..nl).map(|l| kb.literal_value(LiteralId::from_index(l))),
    );
    heap.resize(heap.len().next_multiple_of(4), 0);
    let strings_len = heap.len() as u64;
    sections[STRINGS.0] = heap;

    // Name/label/value lookup tables: ids sorted by string (ties — only
    // possible for homonym instance labels — broken by id).
    let class = ClassId::from_index;
    let inst = InstanceId::from_index;
    sections[CLASS_BY_NAME.0] = by_string(nc, |c| kb.class_name(class(c)));
    sections[PRED_BY_NAME.0] = by_string(np, |p| kb.pred_name(PredId::from_index(p)));
    sections[INST_BY_LABEL.0] = by_string(ni, |i| kb.instance_label(inst(i)));
    sections[LIT_BY_VALUE.0] = by_string(nl, |l| kb.literal_value(LiteralId::from_index(l)));

    // Adjacency CSRs, straight from the query surface they will serve.
    let tax = kb.taxonomy();
    sections[TAX_PARENTS.0] = csr(nc, |c| tax.parents(class(c)).iter().map(|c| c.0));
    sections[INST_CLASSES.0] = csr(ni, |i| kb.instance_classes(inst(i)).iter().map(|c| c.0));
    sections[DIRECT_INST.0] = csr(nc, |c| kb.direct_instances_of(class(c)).iter().map(|i| i.0));
    sections[CLOSED_INST.0] = csr(nc, |c| kb.instances_of(class(c)).iter().map(|i| i.0));
    sections[PREDS_OF.0] = csr(ni, |i| kb.preds_of(inst(i)).iter().map(|p| p.0));

    // SPO runs walk the KB's triples in (s, p, o) order and OSP runs its
    // OSP runs in (o, p, s) order, so both come out with ascending keys:
    // a run opens wherever the key changes.
    let mut num_spo: u32 = 0;
    let mut prev = None;
    for (j, (s, p, o)) in kb.triples().enumerate() {
        if prev != Some((s, p)) {
            prev = Some((s, p));
            push_u32s(&mut sections[SPO_KEYS.0], [s.0, p.0]);
            push_u32s(&mut sections[SPO_OFFS.0], [small(j)]);
            num_spo += 1;
        }
        push_node(&mut sections[SPO_NODES.0], o);
    }
    push_u32s(&mut sections[SPO_OFFS.0], [ne as u32]);

    let mut num_osp: u32 = 0;
    let mut prev = None;
    for (j, (o, p, s)) in kb.osp_triples().enumerate() {
        if prev != Some((o, p)) {
            prev = Some((o, p));
            push_node(&mut sections[OSP_KEYS.0], o);
            push_u32s(&mut sections[OSP_KEYS.0], [p.0]);
            push_u32s(&mut sections[OSP_OFFS.0], [small(j)]);
            num_osp += 1;
        }
        push_u32s(&mut sections[OSP_SUBJS.0], [s.0]);
    }
    push_u32s(&mut sections[OSP_OFFS.0], [ne as u32]);

    // Header + section table + sections + checksum.
    let body_len: usize = sections.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(BODY_START + body_len + 8);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&kb.content_hash().to_le_bytes());
    buf.extend_from_slice(&small(nc).to_le_bytes());
    buf.extend_from_slice(&small(np).to_le_bytes());
    buf.extend_from_slice(&small(ni).to_le_bytes());
    buf.extend_from_slice(&small(nl).to_le_bytes());
    buf.extend_from_slice(&ne.to_le_bytes());
    buf.extend_from_slice(&num_spo.to_le_bytes());
    buf.extend_from_slice(&num_osp.to_le_bytes());
    buf.extend_from_slice(&strings_len.to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // reserved
    debug_assert_eq!(buf.len(), HEADER_LEN);
    let mut offset = BODY_START as u64;
    for s in &sections {
        buf.extend_from_slice(&offset.to_le_bytes());
        buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
        offset += s.len() as u64;
    }
    debug_assert_eq!(buf.len(), BODY_START);
    for s in &sections {
        buf.extend_from_slice(s);
    }
    let checksum = image_checksum(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Process-global suffix for temp names, so two threads packing images
/// into one directory never collide.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Packs `kb` and writes it to `path` atomically: a unique
/// `.<name>.<pid>.<seq>.drkb.tmp` sibling is written, fsynced, then
/// renamed over `path`. Readers either see the old image or the complete
/// new one, never a prefix.
pub fn write_image(path: &Path, kb: &KnowledgeBase) -> Result<(), KbImageError> {
    let bytes = pack(kb);
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("image");
    let tmp = dir.join(format!(
        ".{name}.{}.{}.drkb.tmp",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// A fully validated map of an image's sections. Constructed once at open;
/// after [`ImageLayout::parse`] succeeds, every query-time read is in
/// bounds and every invariant queries rely on (sortedness, id ranges,
/// node tags, UTF-8) is known to hold — corrupt files are rejected here,
/// so the query path never panics and never returns silently wrong data.
#[derive(Debug)]
pub(crate) struct ImageLayout {
    pub content_hash: u64,
    pub num_classes: usize,
    pub num_preds: usize,
    pub num_instances: usize,
    pub num_literals: usize,
    pub num_edges: u64,
    pub num_spo: usize,
    pub num_osp: usize,
    sections: [Range<usize>; NUM_SECTIONS],
}

impl ImageLayout {
    fn section<'a>(&self, bytes: &'a [u8], idx: usize) -> &'a [u8] {
        &bytes[self.sections[idx].clone()]
    }

    fn words<'a>(&self, bytes: &'a [u8], idx: usize) -> &'a [u32] {
        words(self.section(bytes, idx))
    }

    pub fn parse(bytes: &[u8]) -> Result<Self, KbImageError> {
        if bytes.len() < MIN_LEN {
            return Err(KbImageError::TooShort(bytes.len()));
        }
        // A mapping is page-aligned; only a heap copy can be misaligned,
        // and its sections cannot be read in place.
        if !bytes.as_ptr().cast::<u32>().is_aligned() {
            return Err(KbImageError::Malformed(
                "image bytes are not 4-byte aligned in memory",
            ));
        }
        // Checksum first: any flipped or missing byte is caught before a
        // single field is trusted.
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64_at(trailer, 0);
        let computed = image_checksum(body);
        if stored != computed {
            return Err(KbImageError::ChecksumMismatch { stored, computed });
        }
        let magic: [u8; 4] = body[0..4].try_into().expect("4-byte slice");
        if magic != MAGIC {
            return Err(KbImageError::BadMagic(magic));
        }
        let version = u32_at(body, 4);
        if version != FORMAT_VERSION {
            return Err(KbImageError::BadVersion(version));
        }
        let content_hash = u64_at(body, 8);
        let num_classes = u32_at(body, 16) as usize;
        let num_preds = u32_at(body, 20) as usize;
        let num_instances = u32_at(body, 24) as usize;
        let num_literals = u32_at(body, 28) as usize;
        let num_edges = u64_at(body, 32);
        let num_spo = u32_at(body, 40) as usize;
        let num_osp = u32_at(body, 44) as usize;
        let strings_len = u64_at(body, 48);
        if u64_at(body, 56) != 0 {
            return Err(KbImageError::Malformed("reserved header field is nonzero"));
        }
        if num_edges > u32::MAX as u64 {
            return Err(KbImageError::Malformed(
                "edge count exceeds u32 run offsets",
            ));
        }

        // Section table: packed images are contiguous in table order, so
        // require exactly that — it rules out overlap and hidden gaps.
        // Whole u32 words keep every section 4-aligned.
        let mut sections: [Range<usize>; NUM_SECTIONS] = std::array::from_fn(|_| 0..0);
        let mut expect_off = BODY_START as u64;
        for (i, sec) in sections.iter_mut().enumerate() {
            let off = u64_at(body, HEADER_LEN + i * 16);
            let len = u64_at(body, HEADER_LEN + i * 16 + 8);
            if off != expect_off {
                return Err(KbImageError::Malformed("section table is not contiguous"));
            }
            if !len.is_multiple_of(4) {
                return Err(KbImageError::Malformed(
                    "section length is not a multiple of 4",
                ));
            }
            let end = off
                .checked_add(len)
                .ok_or(KbImageError::Malformed("section length overflows"))?;
            if end > body.len() as u64 {
                return Err(KbImageError::Malformed("section extends past the file"));
            }
            *sec = off as usize..end as usize;
            expect_off = end;
        }
        if expect_off != body.len() as u64 {
            return Err(KbImageError::Malformed("trailing bytes after last section"));
        }

        let layout = ImageLayout {
            content_hash,
            num_classes,
            num_preds,
            num_instances,
            num_literals,
            num_edges,
            num_spo,
            num_osp,
            sections,
        };
        layout.validate(body, strings_len)?;
        Ok(layout)
    }

    /// Structural validation beyond the checksum: section shapes, string
    /// table monotonicity + UTF-8, CSR consistency, id bounds, node tags,
    /// and the sort invariants every binary search relies on.
    fn validate(&self, body: &[u8], strings_len: u64) -> Result<(), KbImageError> {
        use section::*;
        let malformed = KbImageError::Malformed;

        let heap = self.section(body, STRINGS.0);
        if heap.len() as u64 != strings_len {
            return Err(malformed("strings_len disagrees with section table"));
        }

        // String offset tables: (n+1) monotonic u64s into the heap, every
        // slice valid UTF-8 (validated once here; query-time reads trust it).
        let tables = [
            (CLASS_STR, self.num_classes),
            (PRED_STR, self.num_preds),
            (INST_STR, self.num_instances),
            (LIT_STR, self.num_literals),
        ];
        for (table, n) in tables {
            let sec = self.section(body, table.0);
            if sec.len() != (n + 1) * 8 {
                return Err(malformed("string offset table has wrong size"));
            }
            let mut prev = u64_at(sec, 0);
            for i in 1..=n {
                let cur = u64_at(sec, i * 8);
                if cur < prev {
                    return Err(malformed("string offsets are not monotonic"));
                }
                prev = cur;
            }
            if prev > heap.len() as u64 {
                return Err(malformed("string offset past the heap"));
            }
            for i in 0..n {
                let start = u64_at(sec, i * 8) as usize;
                let end = u64_at(sec, (i + 1) * 8) as usize;
                if std::str::from_utf8(&heap[start..end]).is_err() {
                    return Err(malformed("string is not valid UTF-8"));
                }
            }
        }

        // Lookup tables: a permutation of 0..n, strictly ascending by the
        // string they point at (ids break instance-label ties).
        let str_of = |table: Sec<u8>, id: u32| -> &[u8] {
            let sec = self.section(body, table.0);
            let id = id as usize;
            &heap[u64_at(sec, id * 8) as usize..u64_at(sec, (id + 1) * 8) as usize]
        };
        let lookups = [
            (CLASS_BY_NAME.0, CLASS_STR, self.num_classes, false),
            (PRED_BY_NAME.0, PRED_STR, self.num_preds, false),
            (INST_BY_LABEL.0, INST_STR, self.num_instances, true),
            (LIT_BY_VALUE.0, LIT_STR, self.num_literals, false),
        ];
        for (idx, str_table, n, ties_by_id) in lookups {
            let ids = self.words(body, idx);
            if ids.len() != n {
                return Err(malformed("lookup table has wrong size"));
            }
            if ids.iter().any(|&id| id as usize >= n) {
                return Err(malformed("lookup table id out of range"));
            }
            let sorted = ids.windows(2).all(|w| {
                match str_of(str_table, w[0]).cmp(str_of(str_table, w[1])) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => ties_by_id && w[0] < w[1],
                    std::cmp::Ordering::Greater => false,
                }
            });
            if !sorted {
                return Err(malformed("lookup table is not sorted"));
            }
        }

        // CSR sections: shape, final-offset consistency, id bounds, and
        // (where the in-memory KB guarantees it) sorted rows.
        let csrs = [
            (TAX_PARENTS.0, self.num_classes, self.num_classes, false),
            (INST_CLASSES.0, self.num_instances, self.num_classes, false),
            (DIRECT_INST.0, self.num_classes, self.num_instances, true),
            (CLOSED_INST.0, self.num_classes, self.num_instances, true),
            (PREDS_OF.0, self.num_instances, self.num_preds, true),
        ];
        for (idx, n, id_bound, sorted) in csrs {
            let sec = self.words(body, idx);
            if sec.len() < n + 1 {
                return Err(malformed("CSR section has wrong size"));
            }
            let (offs, data) = sec.split_at(n + 1);
            if offs[0] != 0 {
                return Err(malformed("CSR does not start at offset zero"));
            }
            if offs.windows(2).any(|w| w[0] > w[1]) || offs[n] as usize != data.len() {
                return Err(malformed("CSR offsets do not tile the rows"));
            }
            if data.iter().any(|&v| v as usize >= id_bound) {
                return Err(malformed("CSR id out of range"));
            }
            if sorted
                && !offs
                    .windows(2)
                    .all(|w| ascending(&data[w[0] as usize..w[1] as usize], 1))
            {
                return Err(malformed("CSR row is not sorted"));
            }
        }

        self.validate_runs(body)
    }

    /// The SPO and OSP run indexes: strictly ascending keys, non-empty
    /// runs that cover every edge, ids in range, node tags 0 or 1,
    /// strictly ascending values in each run (`has_edge` and `subjects`
    /// binary-search them), and OSP holding exactly the transpose of SPO,
    /// so `objects` and `subjects` answer from the same edges.
    fn validate_runs(&self, body: &[u8]) -> Result<(), KbImageError> {
        use section::*;
        let malformed = KbImageError::Malformed;
        let node_ok = |w: &[u32]| match w[0] {
            0 => (w[1] as usize) < self.num_instances,
            1 => (w[1] as usize) < self.num_literals,
            _ => false,
        };

        // SPO: (s, p) keys, object nodes.
        let keys = self.words(body, SPO_KEYS.0);
        let offs = self.words(body, SPO_OFFS.0);
        let nodes = self.words(body, SPO_NODES.0);
        if keys.len() != self.num_spo * 2 || offs.len() != self.num_spo + 1 {
            return Err(malformed("SPO index has wrong size"));
        }
        if nodes.len() as u64 != self.num_edges * 2 {
            return Err(malformed("SPO nodes disagree with edge count"));
        }
        let keys_ok = keys
            .chunks_exact(2)
            .all(|k| (k[0] as usize) < self.num_instances && (k[1] as usize) < self.num_preds);
        if !keys_ok || !nodes.chunks_exact(2).all(node_ok) {
            return Err(malformed("SPO id out of range or bad node tag"));
        }
        check_runs(keys, 2, offs, nodes, 2, self.num_edges).map_err(malformed)?;

        // OSP: (node, p) keys, subject ids.
        let keys = self.words(body, OSP_KEYS.0);
        let offs = self.words(body, OSP_OFFS.0);
        let subs = self.words(body, OSP_SUBJS.0);
        if keys.len() != self.num_osp * 3 || offs.len() != self.num_osp + 1 {
            return Err(malformed("OSP index has wrong size"));
        }
        if subs.len() as u64 != self.num_edges {
            return Err(malformed("OSP subjects disagree with edge count"));
        }
        let keys_ok = keys
            .chunks_exact(3)
            .all(|k| node_ok(&k[..2]) && (k[2] as usize) < self.num_preds);
        if !keys_ok || subs.iter().any(|&s| s as usize >= self.num_instances) {
            return Err(malformed("OSP id out of range or bad node tag"));
        }
        check_runs(keys, 3, offs, subs, 1, self.num_edges).map_err(malformed)?;
        let spo = (
            self.words(body, SPO_KEYS.0),
            self.words(body, SPO_OFFS.0),
            self.words(body, SPO_NODES.0),
        );
        let nodes = self.num_instances + self.num_literals;
        check_transpose(spo, (keys, offs, subs), self.num_instances, nodes).map_err(malformed)
    }
}

/// Checks that the OSP runs hold exactly the SPO edges, transposed, in
/// one merge pass: SPO's edges, visited in `(s, p, o)` order, are dealt
/// into the OSP run of their `(o, p)` key, where a cursor per run must
/// meet `s` next, since a run's subjects ascend. Both sides hold the same
/// number of distinct edges (checked before), so an edge for every slot
/// means the two sets are equal. A run is found from its node's span of
/// OSP keys (keys sort by node, instances before literals, then by
/// predicate), so the pass is linear in edges plus nodes. Expects run
/// indexes that `check_runs` and the id checks passed.
fn check_transpose(
    (spo_keys, spo_offs, nodes): (&[u32], &[u32], &[u32]),
    (osp_keys, osp_offs, subjects): (&[u32], &[u32], &[u32]),
    num_instances: usize,
    num_nodes: usize,
) -> Result<(), &'static str> {
    let (spo_keys, _) = spo_keys.as_chunks::<2>();
    let (nodes, _) = nodes.as_chunks::<2>();
    let (osp_keys, _) = osp_keys.as_chunks::<3>();
    let node = |tag: u32, id: u32| id as usize + if tag == 0 { 0 } else { num_instances };
    // Node n's OSP runs are `first[n]..first[n + 1]`.
    let mut first = vec![0usize; num_nodes + 1];
    for &[tag, id, _] in osp_keys {
        first[node(tag, id) + 1] += 1;
    }
    for n in 1..first.len() {
        first[n] += first[n - 1];
    }
    let mut cursor = osp_offs[..osp_keys.len()].to_vec();
    for (run, &[s, p]) in spo_keys.iter().enumerate() {
        for &[tag, id] in &nodes[spo_offs[run] as usize..spo_offs[run + 1] as usize] {
            let n = node(tag, id);
            let span = &osp_keys[first[n]..first[n + 1]];
            let Ok(at) = span.binary_search_by_key(&p, |key| key[2]) else {
                return Err("an SPO edge has no OSP run");
            };
            let o = first[n] + at;
            let next = cursor[o] as usize;
            if next == osp_offs[o + 1] as usize || subjects[next] != s {
                return Err("OSP is not the transpose of SPO");
            }
            cursor[o] += 1;
        }
    }
    Ok(())
}

/// Whether the `width`-word records of `words` strictly ascend, compared
/// word by word — the order of the typed keys and nodes they hold.
fn ascending(words: &[u32], width: usize) -> bool {
    let records = words.chunks_exact(width);
    records.clone().zip(records.skip(1)).all(|(a, b)| a < b)
}

/// Checks a run index: `key_width`-word keys strictly ascending, `offs`
/// the `(runs + 1)` offsets of non-empty runs tiling all `edges` values,
/// and each run's `val_width`-word values strictly ascending.
fn check_runs(
    keys: &[u32],
    key_width: usize,
    offs: &[u32],
    vals: &[u32],
    val_width: usize,
    edges: u64,
) -> Result<(), &'static str> {
    if !ascending(keys, key_width) {
        return Err("run keys are not sorted");
    }
    if offs[0] != 0 || offs.windows(2).any(|w| w[0] >= w[1]) || offs[offs.len() - 1] as u64 != edges
    {
        return Err("run offsets do not tile the edges");
    }
    let sorted = offs.windows(2).all(|w| {
        ascending(
            &vals[w[0] as usize * val_width..w[1] as usize * val_width],
            val_width,
        )
    });
    if !sorted {
        return Err("run is not sorted");
    }
    Ok(())
}

/// An image whose bytes passed [`ImageLayout::parse`], and the only way to
/// read its sections in place.
#[derive(Debug)]
pub(crate) struct Image {
    bytes: MmapFile,
    layout: ImageLayout,
}

impl Image {
    /// Maps and validates the image at `path`.
    pub fn open(path: &Path) -> Result<Self, KbImageError> {
        let bytes = MmapFile::open(path)?;
        let layout = ImageLayout::parse(&bytes)?;
        Ok(Image { bytes, layout })
    }

    /// The layout validated at open.
    pub fn layout(&self) -> &ImageLayout {
        &self.layout
    }

    /// The raw bytes of section `sec`.
    pub fn bytes<T>(&self, sec: Sec<T>) -> &[u8] {
        self.layout.section(&self.bytes, sec.0)
    }

    /// Section `sec` read in place as a slice of its element type.
    pub fn run<T: Pod>(&self, sec: Sec<T>) -> &[T] {
        cast(self.bytes(sec))
    }

    /// Row `i` of CSR section `sec` over `rows` rows; empty for `i >= rows`,
    /// as the heap KB answers an id past its counts.
    pub fn csr_row<T: Pod>(&self, sec: Sec<Csr<T>>, rows: usize, i: usize) -> &[T] {
        if i >= rows {
            return &[];
        }
        let (offs, data) = self.bytes(sec).split_at((rows + 1) * 4);
        let offs = words(offs);
        &cast(data)[offs[i] as usize..offs[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::nobel_mini_kb;

    #[test]
    fn misaligned_bytes_are_malformed_not_a_panic() {
        let bytes = pack(&nobel_mini_kb());
        // Of four consecutive start bytes, exactly one is 4-aligned.
        let mut buf = vec![0u8; bytes.len() + 3];
        for k in 0..4 {
            buf[k..k + bytes.len()].copy_from_slice(&bytes);
            let at = &buf[k..k + bytes.len()];
            let aligned = at.as_ptr().cast::<u32>().is_aligned();
            match ImageLayout::parse(at) {
                Ok(_) => assert!(aligned, "misaligned copy at {k} parsed"),
                Err(KbImageError::Malformed(_)) => assert!(!aligned, "aligned copy at {k}"),
                Err(e) => panic!("copy at {k}: {e}"),
            }
        }
    }
}
