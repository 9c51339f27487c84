//! Corruption-tolerance matrix for the `.drkb` KB image format, mirroring
//! the snapshot layer's `snapshot_corruption.rs`: every prefix truncation
//! of a valid image and a byte flip at every offset must open to a typed
//! [`KbImageError`] — never a panic, never a silently wrong KB — and
//! targeted corruptions hidden behind a re-sealed checksum must reach
//! their *specific* rejections instead of dying as generic checksum
//! failures. Random multi-byte mutations behind a re-sealed checksum go
//! further: an image that still opens must answer every query in range,
//! since queries read the image in place without checks of their own, and
//! its `objects` and `subjects` must name the same edges.

use dr_kb::fixtures::nobel_mini_kb;
use dr_kb::image::{image_checksum, EXTENSION, MAGIC, MIN_LEN};
use dr_kb::{pack, KbImageError, LiteralId, MappedKb, Node};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch_file(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "dr-image-corrupt-{tag}-{}-{}.{EXTENSION}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Writes `bytes` to a scratch file and opens it through the mmap path.
fn open_bytes(tag: &str, bytes: &[u8]) -> Result<MappedKb, KbImageError> {
    let path = scratch_file(tag);
    std::fs::write(&path, bytes).expect("write image bytes");
    let result = MappedKb::open(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// Recomputes the trailing checksum after a deliberate edit, so the
/// corruption under test is reached instead of `ChecksumMismatch`.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes.truncate(bytes.len() - 8);
    let checksum = image_checksum(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

fn valid_image() -> Vec<u8> {
    pack(&nobel_mini_kb())
}

/// Reads the little-endian `(offset, len)` pair of section table entry `i`.
fn section_entry(bytes: &[u8], i: usize) -> (usize, usize) {
    let at = 64 + i * 16;
    let off = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8 bytes"));
    (off as usize, len as usize)
}

#[test]
fn untampered_image_opens() {
    let kb = nobel_mini_kb();
    let bytes = pack(&kb);
    let mapped = open_bytes("sanity", &bytes).expect("valid image opens");
    assert_eq!(mapped.content_hash(), kb.content_hash());
}

/// Every prefix of a valid file — from empty up to one byte short —
/// opens to an error, never a panic and never an `Ok`.
#[test]
fn every_prefix_truncation_is_a_typed_error() {
    let bytes = valid_image();
    for len in 0..bytes.len() {
        let err = open_bytes("trunc", &bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("prefix of {len}/{} bytes accepted", bytes.len()));
        if len < MIN_LEN {
            assert!(
                matches!(err, KbImageError::TooShort(n) if n == len),
                "prefix {len}: {err}"
            );
        } else {
            assert!(
                matches!(err, KbImageError::ChecksumMismatch { .. }),
                "prefix {len}: {err}"
            );
        }
        assert!(!err.is_absence(), "prefix {len}: truncation is not absence");
    }
}

/// A single flipped bit at every offset — header, section table, string
/// heap, triple runs, and the checksum trailer alike — is caught by the
/// whole-file checksum (or, for trailer flips, the mismatch itself).
#[test]
fn every_byte_flip_is_caught_by_the_checksum() {
    let bytes = valid_image();
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x40;
        let err = open_bytes("flip", &flipped)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {i} accepted"));
        assert!(
            matches!(err, KbImageError::ChecksumMismatch { .. }),
            "flip at byte {i}: {err}"
        );
    }
}

/// A flipped bit at every offset with the checksum re-sealed afterwards:
/// the validator must classify each as a typed error or a still-valid
/// image — it must never panic, whatever structure the flip lands in.
/// (Flips that *are* accepted land in free fields like the content hash,
/// where any value is a well-formed image.)
#[test]
fn resealed_flip_matrix_never_panics() {
    let bytes = valid_image();
    // Skip the trailer: resealing overwrites it anyway.
    for i in 0..bytes.len() - 8 {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x40;
        match open_bytes("reflip", &reseal(flipped)) {
            Ok(_) | Err(_) => {} // reaching here at all is the assertion
        }
    }
}

/// Targeted header corruptions behind a re-sealed checksum reach their
/// specific rejections.
#[test]
fn resealed_header_corruptions_report_specific_errors() {
    let bytes = valid_image();
    assert_eq!(&bytes[..4], &MAGIC, "layout assumption: magic first");

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        open_bytes("magic", &reseal(bad_magic)),
        Err(KbImageError::BadMagic(_))
    ));

    let mut bad_version = bytes.clone();
    bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        open_bytes("version", &reseal(bad_version)),
        Err(KbImageError::BadVersion(99))
    ));

    // Reserved header tail must stay zero in version 1.
    let mut reserved = bytes.clone();
    reserved[56] = 1;
    assert!(matches!(
        open_bytes("reserved", &reseal(reserved)),
        Err(KbImageError::Malformed(_))
    ));

    // An absurd instance count can no longer match the section sizes.
    let mut huge = bytes.clone();
    huge[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        open_bytes("huge-count", &reseal(huge)),
        Err(KbImageError::Malformed(_))
    ));

    // An edge count beyond u32 is rejected before any allocation.
    let mut edges = bytes.clone();
    edges[32..40].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
    assert!(matches!(
        open_bytes("huge-edges", &reseal(edges)),
        Err(KbImageError::Malformed(_))
    ));
}

/// Section-table corruptions: gaps, overlaps, and out-of-bounds ranges are
/// all structural `Malformed` failures — the table must tile the body
/// exactly.
#[test]
fn resealed_section_table_corruptions_are_malformed() {
    let bytes = valid_image();

    // Shift section 1's offset forward: leaves a gap after section 0.
    let (off1, _) = section_entry(&bytes, 1);
    let mut gap = bytes.clone();
    gap[64 + 16..64 + 24].copy_from_slice(&((off1 as u64) + 8).to_le_bytes());
    assert!(matches!(
        open_bytes("gap", &reseal(gap)),
        Err(KbImageError::Malformed(_))
    ));

    // Point section 0 past the end of the file.
    let mut oob = bytes.clone();
    oob[64..72].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
    assert!(matches!(
        open_bytes("oob", &reseal(oob)),
        Err(KbImageError::Malformed(_))
    ));

    // Grow section 0's length: overlaps section 1 and breaks the tiling.
    let (_, len0) = section_entry(&bytes, 0);
    let mut overlap = bytes.clone();
    overlap[72..80].copy_from_slice(&((len0 as u64) + 1).to_le_bytes());
    assert!(matches!(
        open_bytes("overlap", &reseal(overlap)),
        Err(KbImageError::Malformed(_))
    ));
}

/// Payload corruptions behind a valid checksum: broken UTF-8 in the string
/// heap and an unsorted triple run are both caught by validation, not
/// served as silently wrong answers.
#[test]
fn resealed_payload_corruptions_are_malformed() {
    let bytes = valid_image();

    // Section 0 is the string heap; 0xFF is never valid UTF-8.
    let (off0, len0) = section_entry(&bytes, 0);
    assert!(len0 > 0, "fixture has strings");
    let mut bad_utf8 = bytes.clone();
    bad_utf8[off0] = 0xFF;
    assert!(matches!(
        open_bytes("utf8", &reseal(bad_utf8)),
        Err(KbImageError::Malformed(_))
    ));

    // Section 14 holds the sorted (subject, predicate) SPO keys, 8 bytes
    // each; swapping the first two destroys the strict ordering.
    let (off14, len14) = section_entry(&bytes, 14);
    assert!(len14 >= 16, "fixture has at least two SPO runs");
    let mut unsorted = bytes.clone();
    let (a, b) = (off14, off14 + 8);
    for k in 0..8 {
        unsorted.swap(a + k, b + k);
    }
    assert!(matches!(
        open_bytes("unsorted", &reseal(unsorted)),
        Err(KbImageError::Malformed(_))
    ));
}

/// An OSP subject moved to another instance behind a re-sealed checksum:
/// every section is well-formed alone, but `subjects` would disagree with
/// `objects`, so the image must not open.
#[test]
fn resealed_osp_that_is_not_spo_transposed_is_malformed() {
    let bytes = valid_image();
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    // Sections 18 and 19 hold the OSP run offsets and subjects.
    let (offs_at, offs_len) = section_entry(&bytes, 18);
    let (subjects_at, _) = section_entry(&bytes, 19);
    let offs: Vec<u32> = (0..offs_len / 4).map(|i| word(offs_at + 4 * i)).collect();
    let run = offs
        .windows(2)
        .position(|w| w[1] - w[0] == 1)
        .expect("fixture has a one-subject OSP run");
    let at = subjects_at + 4 * offs[run] as usize;
    let instances = nobel_mini_kb().num_instances() as u32;
    let mut moved = bytes.clone();
    moved[at..at + 4].copy_from_slice(&((word(at) + 1) % instances).to_le_bytes());
    assert!(matches!(
        open_bytes("transpose", &reseal(moved)),
        Err(KbImageError::Malformed(_))
    ));
}

/// `open_expecting` with a foreign content hash is a `KeyMismatch` — the
/// image itself is fine, it is just not the KB the caller wanted.
#[test]
fn foreign_content_hash_is_a_key_mismatch() {
    let kb = nobel_mini_kb();
    let path = scratch_file("key");
    std::fs::write(&path, pack(&kb)).expect("write image");
    let err = MappedKb::open_expecting(&path, kb.content_hash() ^ 1).expect_err("wrong key");
    assert!(matches!(err, KbImageError::KeyMismatch { .. }), "{err}");
    assert!(!err.is_absence());
    std::fs::remove_file(&path).ok();
}

/// A missing file is the one *absence* case — callers that treat absence
/// as "build from source" must be able to tell it apart from damage.
#[test]
fn missing_image_is_absence_every_corruption_is_not() {
    let missing = scratch_file("missing");
    let err = MappedKb::open(&missing).expect_err("missing file");
    assert!(err.is_absence(), "{err}");

    let bytes = valid_image();
    let mut damaged = bytes.clone();
    damaged[MIN_LEN / 2] ^= 0x10;
    let err = open_bytes("not-absence", &damaged).expect_err("damaged file");
    assert!(!err.is_absence(), "{err}");
}

/// Whether `items` strictly ascend, as every sorted query promises.
fn ascending<T: Ord>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

/// Runs every query of `kb` for every in-range id, plus `triples()`, and
/// checks that every id they return is below its count, that every sorted
/// answer ascends, and that `objects` and `subjects` name the same edges.
fn query_everything(kb: &MappedKb) {
    let (ni, nc, np, nl) = (
        kb.num_instances(),
        kb.num_classes(),
        kb.num_preds(),
        kb.num_literals(),
    );
    let node_in_range = |n: &Node| match *n {
        Node::Instance(i) => i.index() < ni,
        Node::Literal(l) => l.index() < nl,
    };
    for c in kb.classes() {
        let name = kb.class_name(c);
        assert!(kb.class_named(name).is_some_and(|c| c.index() < nc));
        for extent in [kb.instances_of(c), kb.direct_instances_of(c)] {
            assert!(ascending(extent) && extent.iter().all(|i| i.index() < ni));
        }
        assert!(kb.taxonomy().parents(c).iter().all(|p| p.index() < nc));
    }
    for p in kb.preds() {
        assert!(kb
            .pred_named(kb.pred_name(p))
            .is_some_and(|p| p.index() < np));
    }
    let literals = (0..nl).map(LiteralId::from_index);
    for l in literals.clone() {
        let value = kb.literal_value(l);
        assert!(kb.literal_with_value(value).is_some_and(|l| l.index() < nl));
    }
    for i in kb.instances() {
        let labeled = kb.instances_labeled(kb.instance_label(i));
        assert!(ascending(labeled) && labeled.iter().all(|j| j.index() < ni));
        for &c in kb.instance_classes(i) {
            assert!(c.index() < nc);
            assert!(kb.has_type(i, c));
        }
        let preds = kb.preds_of(i);
        assert!(ascending(preds) && preds.iter().all(|p| p.index() < np));
        for p in kb.preds() {
            assert!(ascending(kb.objects(i, p)));
            for &o in kb.objects(i, p) {
                assert!(node_in_range(&o));
                assert!(kb.has_edge(i, p, o));
                assert!(kb.subjects(o, p).binary_search(&i).is_ok());
                kb.node_value(o);
            }
        }
    }
    let nodes = kb
        .instances()
        .map(Node::Instance)
        .chain(literals.map(Node::Literal));
    for o in nodes {
        for p in kb.preds() {
            let subjects = kb.subjects(o, p);
            assert!(ascending(subjects) && subjects.iter().all(|s| s.index() < ni));
            assert!(subjects.iter().all(|&s| kb.objects(s, p).contains(&o)));
        }
    }
    let mut edges = 0;
    for (s, p, o) in kb.triples() {
        assert!(s.index() < ni && p.index() < np && node_in_range(&o));
        edges += 1;
    }
    assert_eq!(edges, kb.num_edges());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A few edits anywhere before the trailer, the checksum re-sealed:
    /// the image opens to a typed error, or it opens and answers every
    /// query in range, consistently, without a panic. An edit overwrites
    /// a byte, nudges a u32 word by at most 2, or sets a word to 0..4, so
    /// ids, offsets and node tags stay plausible and some mutants pass
    /// validation.
    #[test]
    fn accepted_mutants_answer_every_query_in_range(
        edits in prop::collection::vec((any::<u32>(), 0u8..3, any::<u8>()), 1..5),
    ) {
        let mut bytes = valid_image();
        let body_len = bytes.len() - 8;
        for &(at, kind, value) in &edits {
            let byte = at as usize % body_len;
            let word = byte / 4 * 4;
            let old = u32::from_le_bytes(bytes[word..word + 4].try_into().expect("4 bytes"));
            let new = match kind {
                0 => {
                    bytes[byte] = value;
                    continue;
                }
                1 => old.wrapping_add(u32::from(value % 5)).wrapping_sub(2),
                _ => u32::from(value % 4),
            };
            bytes[word..word + 4].copy_from_slice(&new.to_le_bytes());
        }
        if let Ok(kb) = open_bytes("mutant", &reseal(bytes)) {
            query_everything(&kb);
        }
    }
}
