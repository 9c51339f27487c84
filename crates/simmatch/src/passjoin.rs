//! Partition-based signature index for threshold edit-distance lookup,
//! following the PASS-JOIN scheme the paper cites for fast instance matching
//! (§IV-B(2), citing Li et al., PVLDB 2011).
//!
//! Every indexed string is split into `k + 1` contiguous segments. If
//! `ED(q, s) ≤ k`, then by pigeonhole at least one segment of `s` survives
//! unedited and occurs in `q` as a contiguous substring, displaced by at most
//! `k` positions. Probing the inverted index with the `O(k²)` windowed
//! substrings of `q` therefore finds **every** true match (no false
//! negatives).
//!
//! A lookup allocates per query, never per probe or per candidate: each
//! window is a borrowed slice of the normalized query, cut at char
//! boundaries found in one pass, and every candidate is verified against
//! one `Pattern` built from the query. The pattern runs Myers'
//! bit-parallel kernel for queries up to 64 chars and the banded DP beyond
//! (see [`mod@crate::edit_distance`]), streaming each candidate's chars from
//! its stored string.

use crate::edit_distance::Pattern;
use crate::normalize::normalize;
use dr_kb::FxHashMap;

/// Posting lists of one (indexed string char-length, segment index) pair,
/// keyed by segment content; values are offsets into strings/ids.
type Segments = FxHashMap<Box<str>, Vec<u32>>;

/// A verified match returned by [`SignatureIndex::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Caller-supplied id of the matching string.
    pub id: u32,
    /// Its edit distance from the query (≤ k).
    pub distance: u32,
}

/// The start offset and length (in chars) of each of the `k+1` segments of a
/// string with `len` chars; the first `len % (k+1)` get one char more.
fn partition(len: usize, k: usize) -> impl Iterator<Item = (usize, usize)> {
    let parts = k + 1;
    let (base, extra) = (len / parts, len % parts);
    (0..parts).map(move |i| (i * base + i.min(extra), base + usize::from(i < extra)))
}

/// Fills `out` with the byte offset of every char of `s`, then `s.len()`,
/// so chars `i..j` of `s` are `&s[out[i]..out[j]]`.
fn char_bounds(s: &str, out: &mut Vec<usize>) {
    out.clear();
    out.extend(s.char_indices().map(|(at, _)| at));
    out.push(s.len());
}

/// An inverted index over segment signatures supporting
/// `ED(query, indexed) ≤ k` retrieval.
pub struct SignatureIndex {
    k: usize,
    /// Normalized strings, indexed by insertion order; `ids[i]` is the
    /// caller id of `strings[i]`.
    strings: Vec<Box<str>>,
    ids: Vec<u32>,
    postings: FxHashMap<(u32, u8), Segments>,
    /// Char-lengths present in the index (sorted, deduped).
    lengths: Vec<u32>,
}

impl SignatureIndex {
    /// Builds an index for threshold `k` over `(id, value)` pairs. Values are
    /// normalized before indexing; queries are normalized before lookup.
    pub fn build<'a>(k: u32, items: impl IntoIterator<Item = (u32, &'a str)>) -> Self {
        let k = k as usize;
        let mut strings = Vec::new();
        let mut ids = Vec::new();
        let mut postings: FxHashMap<(u32, u8), Segments> = FxHashMap::default();
        let mut lengths = Vec::new();
        let mut bounds = Vec::new();
        for (id, raw) in items {
            let value = normalize(raw);
            char_bounds(&value, &mut bounds);
            let len = bounds.len() - 1;
            let len_key = u32::try_from(len).expect("indexed string under 4G chars");
            let offset = strings.len() as u32;
            lengths.push(len_key);
            for (seg_idx, (start, seg_len)) in partition(len, k).enumerate() {
                // Zero-length segments (len < k+1) match the empty substring;
                // index them too so short strings remain findable.
                let segment = &value[bounds[start]..bounds[start + seg_len]];
                let lists = postings.entry((len_key, seg_idx as u8)).or_default();
                match lists.get_mut(segment) {
                    Some(list) => list.push(offset),
                    None => {
                        lists.insert(segment.into(), vec![offset]);
                    }
                }
            }
            strings.push(value.into_boxed_str());
            ids.push(id);
        }
        lengths.sort_unstable();
        lengths.dedup();
        Self {
            k,
            strings,
            ids,
            postings,
            lengths,
        }
    }

    /// The edit-distance threshold this index was built for.
    pub fn threshold(&self) -> usize {
        self.k
    }

    /// Number of indexed strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Candidate offsets whose strings *may* be within distance `k` of the
    /// normalized `query`, whose char boundaries are `bounds` (superset of
    /// the true matches). Deduplicated.
    fn candidate_offsets(&self, query: &str, bounds: &[usize]) -> Vec<u32> {
        let qlen = bounds.len() - 1;
        let mut out: Vec<u32> = Vec::new();
        let (lo, hi) = (qlen.saturating_sub(self.k), qlen + self.k);
        let from = self.lengths.partition_point(|&l| (l as usize) < lo);
        for &len in &self.lengths[from..] {
            if len as usize > hi {
                break;
            }
            for (seg_idx, (start, seg_len)) in partition(len as usize, self.k).enumerate() {
                if seg_len > qlen {
                    continue;
                }
                let Some(lists) = self.postings.get(&(len, seg_idx as u8)) else {
                    continue;
                };
                let win_lo = start.saturating_sub(self.k);
                let win_hi = (start + self.k).min(qlen - seg_len);
                for sp in win_lo..=win_hi {
                    if let Some(list) = lists.get(&query[bounds[sp]..bounds[sp + seg_len]]) {
                        out.extend_from_slice(list);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All indexed ids within edit distance `k` of `query`. Results are
    /// sorted by offset (insertion order).
    pub fn lookup(&self, query: &str) -> Vec<Match> {
        let q = normalize(query);
        let mut bounds = Vec::new();
        char_bounds(&q, &mut bounds);
        let mut pattern = Pattern::new(&q);
        self.candidate_offsets(&q, &bounds)
            .into_iter()
            .filter_map(|off| {
                pattern
                    .within(&self.strings[off as usize], self.k)
                    .map(|d| Match {
                        id: self.ids[off as usize],
                        distance: d as u32,
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance::{edit_distance, within};
    use proptest::prelude::*;

    #[test]
    fn partition_covers_string() {
        for len in 0..40 {
            for k in 0..5 {
                let parts: Vec<_> = partition(len, k).collect();
                assert_eq!(parts.len(), k + 1);
                let total: usize = parts.iter().map(|&(_, l)| l).sum();
                assert_eq!(total, len);
                // Contiguous.
                let mut expect = 0;
                for &(start, l) in &parts {
                    assert_eq!(start, expect);
                    expect += l;
                }
            }
        }
    }

    #[test]
    fn finds_exact_and_near_matches() {
        let names = ["Pasteur Institute", "Cornell University", "UC Berkeley"];
        let idx = SignatureIndex::build(2, names.iter().enumerate().map(|(i, &s)| (i as u32, s)));
        let hits = idx.lookup("Paster Institute");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
        // Both sides are normalized (trim, collapse whitespace, lowercase)
        // before the distance is computed: "paster institute" vs
        // "pasteur institute" differ by the single missing 'u'.
        assert_eq!(hits[0].distance, 1);
        assert_eq!(normalize("Paster Institute"), "paster institute");
        // Normalization itself never contributes to the distance: a query
        // differing only in case/whitespace is an exact (distance-0) match.
        let exact = idx.lookup("  pasteur   INSTITUTE ");
        assert_eq!(exact.len(), 1);
        assert_eq!((exact[0].id, exact[0].distance), (0, 0));
    }

    #[test]
    fn respects_threshold() {
        let idx = SignatureIndex::build(1, [(7u32, "haifa")]);
        assert_eq!(idx.lookup("haifa").len(), 1);
        assert_eq!(idx.lookup("haifaa").len(), 1);
        assert!(idx.lookup("hfx").is_empty());
    }

    #[test]
    fn empty_index_and_empty_query() {
        let idx = SignatureIndex::build(2, std::iter::empty());
        assert!(idx.is_empty());
        assert!(idx.lookup("anything").is_empty());

        let idx = SignatureIndex::build(2, [(1u32, "ab")]);
        // Empty query within distance 2 of "ab".
        let hits = idx.lookup("");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 2);
    }

    #[test]
    fn short_strings_with_large_k() {
        // len < k+1 creates zero-length segments; matching must still work.
        let idx = SignatureIndex::build(3, [(1u32, "ab"), (2u32, "a")]);
        let hits = idx.lookup("ab");
        let ids: Vec<u32> = hits.iter().map(|m| m.id).collect();
        assert!(ids.contains(&1));
        assert!(ids.contains(&2));
    }

    #[test]
    fn strings_past_u16_chars_are_found() {
        // A 70,000-char string (an abstract, say) is longer than a u16
        // length key holds; it is found by itself and by a one-edit variant.
        let long: String = (0..70_000u32)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let idx = SignatureIndex::build(1, [(9u32, long.as_str())]);
        assert_eq!(idx.lookup(&long), vec![Match { id: 9, distance: 0 }]);
        let mut one_edit = long.clone();
        one_edit.replace_range(40_000..40_001, "z");
        assert_ne!(one_edit, long);
        assert_eq!(idx.lookup(&one_edit), vec![Match { id: 9, distance: 1 }]);
    }

    #[test]
    fn duplicate_ids_allowed() {
        let idx = SignatureIndex::build(1, [(5u32, "x"), (5u32, "y")]);
        assert_eq!(idx.len(), 2);
    }

    proptest! {
        /// The signature filter must never lose a true match.
        #[test]
        fn no_false_negatives(
            strings in prop::collection::vec("[ab]{0,10}", 1..20),
            query in "[ab]{0,10}",
            k in 0u32..4,
        ) {
            let idx = SignatureIndex::build(
                k,
                strings.iter().enumerate().map(|(i, s)| (i as u32, s.as_str())),
            );
            let hits = idx.lookup(&query);
            for (i, s) in strings.iter().enumerate() {
                let d = edit_distance(&normalize(&query), &normalize(s));
                let hit = hits.iter().find(|m| m.id == i as u32);
                if d <= k as usize {
                    prop_assert!(hit.is_some(), "missed {s:?} at distance {d} (k={k})");
                    prop_assert_eq!(hit.unwrap().distance as usize, d);
                } else {
                    prop_assert!(hit.is_none(), "false positive {s:?} at distance {d} (k={k})");
                }
            }
        }

        /// Lookup equals a brute-force `within` scan on multi-byte
        /// alphabets, where a window cut at the wrong byte offset would
        /// miss a match or panic.
        #[test]
        fn lookup_equals_scan_on_multibyte_strings(
            strings in prop::collection::vec("[aé北 ]{0,12}", 1..20),
            query in "[aé北 ]{0,12}",
            k in 0u32..4,
        ) {
            let idx = SignatureIndex::build(
                k,
                strings.iter().enumerate().map(|(i, s)| (i as u32, s.as_str())),
            );
            let q = normalize(&query);
            let want: Vec<Match> = strings
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    within(&q, &normalize(s), k as usize).map(|d| Match {
                        id: i as u32,
                        distance: d as u32,
                    })
                })
                .collect();
            prop_assert_eq!(idx.lookup(&query), want);
        }
    }
}
