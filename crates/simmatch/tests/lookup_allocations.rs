//! Allocation budget of an `ED,k` lookup: a [`SignatureIndex`] lookup
//! allocates per query (the normalized query, its char boundaries, the
//! prepared pattern, the candidate and result lists), never per probe
//! window or per verified candidate.
//!
//! The counting allocator is installed for this test binary only, and it
//! counts on the calling thread, so the harness's own threads don't add
//! to a measurement.

use dr_simmatch::SignatureIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn lookup_allocates_per_query_not_per_candidate() {
    const N: usize = 2_000;
    // ASCII and multi-byte queries take the bit-parallel kernel; the
    // 70-char one takes the banded DP.
    let long = "x".repeat(70);
    for base in ["abcdefgh", "北京市東京都éa", long.as_str()] {
        let chars: Vec<char> = base.chars().collect();
        // Every indexed string is one substitution away from `base`.
        let values: Vec<String> = (0..N)
            .map(|i| {
                let mut v = chars.clone();
                v[i % chars.len()] = 'z';
                v.into_iter().collect()
            })
            .collect();
        let index = SignatureIndex::build(
            2,
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (i as u32, v.as_str())),
        );
        let (hits, allocated) = allocations(|| index.lookup(base));
        assert_eq!(hits.len(), N, "{base}: every string is within k");
        // Growing the candidate and result lists takes O(log N)
        // reallocations; one allocation per candidate would be ≥ N.
        assert!(
            allocated < 100,
            "{base}: {allocated} allocations for one lookup over {N} candidates"
        );
    }
}
