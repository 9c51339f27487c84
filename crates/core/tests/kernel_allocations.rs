//! Allocation budget of Algorithm 2's per-tuple kernel: a warm
//! `fast_repair` pass allocates for what its report keeps (steps, repaired
//! values, per-row footprints), not per rule check, per solver level, per
//! value-cache probe or per recorded KB read.
//!
//! The counting allocator is installed for this test binary only, and it
//! counts on the calling thread — `fast_repair` runs its one worker there —
//! so the harness's own threads don't add to a measurement.

use dr_core::fixtures::{figure4_rules, table1_dirty};
use dr_core::{fast_repair, ApplyOptions, CacheRegistry, MatchContext};
use dr_kb::fixtures::nobel_mini_kb;
use dr_relation::Relation;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Table I repeated `copies` times, every row its own tuple (no row is
/// shared with another relation, so the pass copies none on write).
fn table1_times(copies: usize) -> Relation {
    let base = table1_dirty();
    let rows = (0..copies)
        .flat_map(|_| base.tuples().iter().map(|t| Arc::new((**t).clone())))
        .collect();
    Relation::from_tuples(Arc::clone(base.schema()), rows)
}

#[test]
fn warm_fast_repair_allocates_little_per_row() {
    const COPIES: usize = 32;
    let kb = nobel_mini_kb();
    let rules = figure4_rules(&kb);
    let registry = Arc::new(CacheRegistry::default());
    let ctx = MatchContext::with_registry(&kb, registry);
    let opts = ApplyOptions::default();

    // The first pass builds the indexes and fills the registry's value
    // cache; the second runs warm.
    let mut cold = table1_times(COPIES);
    let cold_report = fast_repair(&ctx, &rules, &mut cold, &opts);
    let mut warm = table1_times(COPIES);
    let (warm_report, allocated) = allocations(|| fast_repair(&ctx, &rules, &mut warm, &opts));

    assert_eq!(warm_report.tuples, cold_report.tuples);
    assert_eq!(warm.tuples(), cold.tuples());
    assert_eq!(warm_report.cache.misses(), 0, "{:?}", warm_report.cache);
    // A warm row allocates about 20.5 times: its report (steps, repaired
    // values, the row's `Arc`) and its footprint, one sorted slice.
    let rows = warm.len();
    assert!(
        allocated < 22 * rows,
        "{allocated} allocations for {rows} warm rows ({} per row)",
        allocated / rows
    );
}
