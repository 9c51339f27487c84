//! Levenshtein edit distance: the full dynamic program, and the threshold
//! check every `ED,k` lookup runs.
//!
//! Rule nodes with `sim: ED,k` only ever ask "is the distance ≤ k?", so the
//! hot path is a `Pattern`: the query side, prepared once with the
//! bitmask of its positions for every char it holds (Myers' `Peq`). Each
//! other string then streams its chars straight from its `&str` through
//! Myers' bit-parallel algorithm (Hyyrö's global-distance form): one
//! machine word per DP column, O(n) word operations, no heap allocation per
//! check, and an early exit once the last row cannot come back under `k`.
//! A pattern longer than 64 chars does not fit one word; it falls back to
//! the DP restricted to the `2k+1` diagonal band, O(k·n), exiting once the
//! whole band exceeds `k`. [`within`] makes the shorter string the pattern,
//! so `SimFn::matches`, the PASS-JOIN verifier and every linear scan share
//! one kernel. [`edit_distance`] is the unrestricted DP, the oracle the
//! kernels are tested against.

/// Full Levenshtein distance between `a` and `b` (unit costs for insert,
/// delete, substitute).
///
/// Operates on Unicode scalar values, matching the paper's character-level
/// examples (`ED(Chemistry, Chamstry) = 2`).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // One-row DP.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let val = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[b.len()]
}

/// Returns `Some(distance)` iff `edit_distance(a, b) <= k`; `None` otherwise.
///
/// The shorter string becomes the `Pattern`, so strings up to 64 chars
/// run the bit-parallel kernel whatever the other side's length.
pub fn within(a: &str, b: &str, k: usize) -> Option<usize> {
    let (na, nb) = (a.chars().count(), b.chars().count());
    if na.abs_diff(nb) > k {
        return None;
    }
    let (pattern, text) = if na <= nb { (a, b) } else { (b, a) };
    Pattern::new(pattern).within(text, k)
}

/// Convenience predicate: `edit_distance(a, b) <= k`.
#[inline]
pub fn within_bool(a: &str, b: &str, k: usize) -> bool {
    within(a, b, k).is_some()
}

/// Longest pattern the bit-parallel kernel takes: one bit per char in a
/// `u64`.
const WORD: usize = 64;

/// One string prepared for many `≤ k` checks against others.
pub(crate) struct Pattern {
    /// Length in chars.
    len: usize,
    /// Match masks for the bit-parallel kernel; left empty when the
    /// pattern is longer than [`WORD`].
    peq: Peq,
    /// A longer pattern's chars, and the banded DP's row kept for reuse
    /// across checks; both empty for a pattern that fits a word.
    chars: Vec<char>,
    row: Vec<usize>,
}

impl Pattern {
    pub(crate) fn new(pattern: &str) -> Self {
        let len = pattern.chars().count();
        let fits = len <= WORD;
        Self {
            len,
            peq: if fits {
                Peq::new(pattern)
            } else {
                Peq::empty()
            },
            chars: if fits {
                Vec::new()
            } else {
                pattern.chars().collect()
            },
            row: Vec::new(),
        }
    }

    /// `Some(distance)` iff the distance between this pattern and `text`
    /// is at most `k`.
    pub(crate) fn within(&mut self, text: &str, k: usize) -> Option<usize> {
        let (m, n) = (self.len, text.chars().count());
        if m.abs_diff(n) > k {
            return None;
        }
        if m == 0 || n == 0 {
            return Some(m.max(n));
        }
        if m <= WORD {
            bit_parallel(&self.peq, m, text, n, k)
        } else {
            banded(&self.chars, text, k, &mut self.row)
        }
    }
}

/// Per-char match masks of a pattern of at most [`WORD`] chars: bit `i` of
/// `mask(c)` is set iff the pattern's `i`-th char is `c`.
struct Peq {
    ascii: [u64; 128],
    /// The pattern's non-ASCII chars and their masks. A pattern holds few
    /// distinct ones, so a linear scan beats hashing.
    other: Vec<(char, u64)>,
}

impl Peq {
    fn empty() -> Self {
        Self {
            ascii: [0; 128],
            other: Vec::new(),
        }
    }

    fn new(pattern: &str) -> Self {
        let mut peq = Self::empty();
        for (i, c) in pattern.chars().enumerate() {
            let bit = 1u64 << i;
            if c.is_ascii() {
                peq.ascii[c as usize] |= bit;
            } else if let Some((_, mask)) = peq.other.iter_mut().find(|(o, _)| *o == c) {
                *mask |= bit;
            } else {
                peq.other.push((c, bit));
            }
        }
        peq
    }

    #[inline]
    fn mask(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .iter()
                .find(|&&(o, _)| o == c)
                .map_or(0, |&(_, mask)| mask)
        }
    }
}

/// Myers' bit-parallel distance between the `m`-char pattern behind `peq`
/// (`1 ≤ m ≤ 64`) and the `n`-char `text`, `Some` iff it is at most `k`.
///
/// Column `j` of the DP is held as vertical deltas: `pv`/`mv` mark the rows
/// where it steps up/down by one. `score` tracks the last row's value.
fn bit_parallel(peq: &Peq, m: usize, text: &str, n: usize, k: usize) -> Option<usize> {
    let last = 1u64 << (m - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut score = m;
    for (j, c) in text.chars().enumerate() {
        let eq = peq.mask(c);
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // Row 0 is 0, 1, 2, …: every column steps it up by one.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        // Each text char left can lower the last row by at most one.
        if score > k + (n - 1 - j) {
            return None;
        }
    }
    (score <= k).then_some(score)
}

/// The DP restricted to the `2k+1` diagonals around the main one, `Some`
/// iff the distance between `pattern` and `text` is at most `k`. Rows
/// stream `text`'s chars; `row` holds the columns, one per pattern char.
/// Expects both sides non-empty and their lengths at most `k` apart.
fn banded(pattern: &[char], text: &str, k: usize, row: &mut Vec<usize>) -> Option<usize> {
    const BIG: usize = usize::MAX / 2;
    let m = pattern.len();
    // row[j] = distance for prefix (i, j); only j in [i-k, i+k] is live.
    row.clear();
    row.extend((0..=m).map(|j| if j <= k { j } else { BIG }));
    for (i, c) in (1usize..).zip(text.chars()) {
        let lo = i.saturating_sub(k).max(1);
        let hi = (i + k).min(m);
        let mut prev_diag = if lo == 1 { i - 1 } else { row[lo - 1] };
        let mut left = if i <= k { i } else { BIG }; // row[lo-1] in the *new* row
        if i <= k {
            row[0] = i;
        }
        let mut min_in_row = BIG;
        for j in lo..=hi {
            let up = row[j];
            let cost = usize::from(c != pattern[j - 1]);
            let val = (prev_diag + cost).min(up + 1).min(left + 1);
            prev_diag = up;
            row[j] = val;
            left = val;
            min_in_row = min_in_row.min(val);
        }
        if hi < m {
            row[hi + 1] = BIG; // stale cell from previous row is out of band
        }
        if min_in_row > k {
            return None;
        }
    }
    (row[m] <= k).then_some(row[m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn paper_example() {
        assert_eq!(edit_distance("Chemistry", "Chamstry"), 2);
    }

    #[test]
    fn identical_and_empty() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
    }

    #[test]
    fn single_operations() {
        assert_eq!(edit_distance("cat", "cats"), 1); // insert
        assert_eq!(edit_distance("cats", "cat"), 1); // delete
        assert_eq!(edit_distance("cat", "cut"), 1); // substitute
    }

    #[test]
    fn unicode_chars_count_as_one() {
        assert_eq!(edit_distance("café", "cafe"), 1);
        assert_eq!(edit_distance("北京", "東京"), 1);
    }

    #[test]
    fn within_agrees_on_small_cases() {
        assert_eq!(within("Chemistry", "Chamstry", 2), Some(2));
        assert_eq!(within("Chemistry", "Chamstry", 1), None);
        assert_eq!(within("abc", "abc", 0), Some(0));
        assert_eq!(within("abc", "abd", 0), None);
    }

    #[test]
    fn within_length_filter() {
        // Length gap alone exceeds k.
        assert_eq!(within("a", "abcdef", 2), None);
        assert_eq!(within("", "ab", 1), None);
        assert_eq!(within("", "ab", 2), Some(2));
    }

    #[test]
    fn within_band_edges() {
        assert_eq!(within("kitten", "sitting", 3), Some(3));
        assert_eq!(within("kitten", "sitting", 2), None);
    }

    #[test]
    fn kernel_switches_at_one_word() {
        // 64 chars fit the bit-parallel kernel; 65 take the banded DP.
        for len in [63, 64, 65, 66] {
            let a = "ab".repeat(len).chars().take(len).collect::<String>();
            let mut b = a.clone();
            b.replace_range(0..1, "x");
            b.push('y');
            assert_eq!(within(&a, &b, 2), Some(2), "len {len}");
            assert_eq!(within(&a, &b, 1), None, "len {len}");
            assert_eq!(within(&b, &a, 2), Some(2), "len {len}");
        }
    }

    /// Both kernels run directly, with `a` as the pattern (the bit-parallel
    /// one only when it fits a word), and `within` on both argument orders;
    /// all must agree with the full DP.
    fn assert_kernels_agree(a: &str, b: &str, k: usize) -> Result<(), TestCaseError> {
        let full = edit_distance(a, b);
        let want = (full <= k).then_some(full);
        prop_assert_eq!(within(a, b, k), want);
        prop_assert_eq!(within(b, a, k), want);
        let (m, n) = (a.chars().count(), b.chars().count());
        if m > 0 && n > 0 {
            let chars: Vec<char> = a.chars().collect();
            prop_assert_eq!(banded(&chars, b, k, &mut Vec::new()), want);
            if m <= WORD {
                prop_assert_eq!(bit_parallel(&Peq::new(a), m, b, n, k), want);
            }
        }
        Ok(())
    }

    proptest! {
        /// Arbitrary UTF-8 on both sides of the 64-char cut.
        #[test]
        fn kernels_match_full_dp(a in "\\PC{0,80}", b in "\\PC{0,80}", k in 0usize..6) {
            assert_kernels_agree(&a, &b, k)?;
        }

        /// Pairs a few edits apart, so most draws land within `k`.
        #[test]
        fn kernels_match_full_dp_on_near_pairs(
            a in "\\PC{0,80}",
            edits in prop::collection::vec((0usize..100, 0u8..3, "\\PC"), 0..6),
            k in 0usize..6,
        ) {
            let mut b: Vec<char> = a.chars().collect();
            for (at, op, c) in edits {
                let c = c.chars().next().unwrap();
                let at = at % (b.len() + 1);
                match op {
                    0 => b.insert(at, c),
                    1 if at < b.len() => b[at] = c,
                    _ if at < b.len() => {
                        b.remove(at);
                    }
                    _ => {}
                }
            }
            let b: String = b.into_iter().collect();
            assert_kernels_agree(&a, &b, k)?;
        }

        #[test]
        fn banded_matches_full(a in "[a-d]{0,12}", b in "[a-d]{0,12}", k in 0usize..6) {
            let full = edit_distance(&a, &b);
            let banded = within(&a, &b, k);
            if full <= k {
                prop_assert_eq!(banded, Some(full));
            } else {
                prop_assert_eq!(banded, None);
            }
        }

        #[test]
        fn symmetric(a in "\\PC{0,16}", b in "\\PC{0,16}") {
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        }

        #[test]
        fn triangle_inequality(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let ab = edit_distance(&a, &b);
            let bc = edit_distance(&b, &c);
            let ac = edit_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn zero_iff_equal(a in "\\PC{0,16}", b in "\\PC{0,16}") {
            let a_chars: Vec<char> = a.chars().collect();
            let b_chars: Vec<char> = b.chars().collect();
            prop_assert_eq!(edit_distance(&a, &b) == 0, a_chars == b_chars);
        }
    }
}
